// Extension — tunable consistency models (pdsi::consist): the throughput
// a parallel file system buys back per consistency relaxation, after
// Wang et al.'s POSIX / session / commit / MPI-IO hierarchy
// (arXiv 2402.14105). Two workload families, each swept over all four
// models, with and without an active fault plan:
//
//   1. N clients strided over one shared file under whole-file locking —
//      the pathological case: POSIX serialises every write through the
//      lock manager (revocation per alternating writer), session trades
//      the lock charges for open/close publishes, commit for one sync
//      publish, MPI-IO for the amortised collective sync. Records are
//      byte-disjoint so relaxation never changes the bytes, only the
//      coordination cost.
//   2. File-per-process checkpoint+readback — the control: with no
//      sharing there is nothing to relax, and all four models run the
//      identical op sequence in identical virtual time.
//
// Every run is audited: the recorded consist trace is fed to the
// ConsistencyChecker for the model the run claims, every byte read is
// verified against the written pattern, and the sweep asserts throughput
// is monotonically non-decreasing as the model relaxes. Any violation
// fails the bench (exit 1), so CI cannot ship a relaxation that lies.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/fault/fault.h"
#include "pdsi/obs/obs.h"
#include "pdsi/obs/profile.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

using namespace pdsi;

namespace {

constexpr char kBench[] = "ext16_consistency";
constexpr std::uint64_t kRec = 64 * KiB;  // one lock unit per record

struct SweepParams {
  bool shared = true;  ///< strided shared file vs file-per-process
  bool faulty = false; ///< active fault plan (slow disks + dropped RPCs)
  int ranks = 8;
  int rounds = 12;
};

struct RunResult {
  double makespan_s = 0.0;
  double mbs = 0.0;
  double lock_wait_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t lock_conflicts = 0;
  std::uint64_t lock_skips = 0;
  std::uint64_t publishes = 0;
  std::uint64_t retries = 0;
  bool bytes_ok = false;
  consist::CheckResult check;
  std::string first_violation;
};

std::uint32_t Tag(int ranks, int round, int rank) {
  return static_cast<std::uint32_t>(1000 + round * ranks + rank);
}

/// One model × one workload family, on a fresh cluster with its own
/// tracer/registry. The timed window covers create/open through the last
/// barrier (shared) or last readback (fpp); teardown closes land in the
/// trace (the checker sees them) but not in the makespan.
RunResult RunOne(consist::ConsistencyModel model, const SweepParams& p,
                 const std::string& trace_path) {
  obs::Registry reg;
  obs::Tracer tracer;
  obs::Context ctx;
  ctx.tracer = &tracer;
  ctx.registry = &reg;

  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.consistency = model;
  cfg.record_consist_ops = true;
  // The shared-file family runs under the degenerate whole-file lock —
  // the serialisation the relaxed models exist to avoid. Records stay
  // byte-disjoint, so the checker's POSIX conflict scan stays quiet.
  if (p.shared) cfg.locking = pfs::LockProtocol::whole_file;

  // Seed chosen so the 4-server draw actually degrades a disk; crashes
  // stay off so every op eventually succeeds and the trace stays clean.
  fault::FaultPlan plan;
  plan.seed = 99;
  if (p.faulty) {
    plan.slow_disk_prob = 0.25;
    plan.slow_disk_factor = 3.0;
    plan.rpc_drop_prob = 0.02;
  }

  sim::VirtualScheduler sched(static_cast<std::size_t>(p.ranks));
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  fault::FaultInjector inj(plan, cfg.num_oss, &ctx);
  if (p.faulty) cluster.set_fault(&inj);

  const bool session = model == consist::ConsistencyModel::session;
  const bool commit = model == consist::ConsistencyModel::commit;
  const bool mpiio = model == consist::ConsistencyModel::mpiio;

  sim::VirtualBarrier barrier(sched);

  std::vector<double> ends(static_cast<std::size_t>(p.ranks), 0.0);
  std::atomic<bool> ok{true};

  sched.run([&](std::size_t actor) {
    const int r = static_cast<int>(actor);
    pfs::PfsClient client(cluster, actor);
    pfs::FileHandle fh = -1;
    if (p.shared) {
      if (r == 0) {
        fh = *client.create("/shared");
        if (session) client.close(fh);
        barrier.arrive(actor);
      } else {
        barrier.arrive(actor);
        if (!session) fh = *client.open("/shared");
      }
      for (int k = 0; k < p.rounds; ++k) {
        const std::uint64_t woff =
            static_cast<std::uint64_t>(k * p.ranks + r) * kRec;
        if (session) fh = *client.open("/shared");
        if (!client.write(fh, woff, MakePattern(Tag(p.ranks, k, r), woff, kRec))
                 .ok()) {
          ok = false;
        }
        if (session) {
          if (!client.close(fh).ok()) ok = false;
        } else if (commit || mpiio) {
          if (!client.fsync(fh).ok()) ok = false;
        }
        barrier.arrive(actor);
        const int tgt = (r + 1 + k) % p.ranks;
        const std::uint64_t roff =
            static_cast<std::uint64_t>(k * p.ranks + tgt) * kRec;
        if (session) fh = *client.open("/shared");
        if (mpiio) {
          if (!client.fsync(fh).ok()) ok = false;
        }
        Bytes out(kRec);
        auto n = client.read(fh, roff, out);
        if (!n.ok() || *n != kRec ||
            FindPatternMismatch(Tag(p.ranks, k, tgt), roff, out) !=
                kNoMismatch) {
          ok = false;
        }
        if (session) client.close(fh);
        barrier.arrive(actor);
      }
      ends[actor] = client.now();
      if (!session && fh >= 0) client.close(fh);
    } else {
      // File-per-process: the identical op sequence under every model —
      // no cross-client visibility is needed, so no publishes either.
      fh = *client.create("/ckpt." + std::to_string(r));
      for (int k = 0; k < p.rounds; ++k) {
        const std::uint64_t off = static_cast<std::uint64_t>(k) * kRec;
        if (!client.write(fh, off, MakePattern(Tag(p.ranks, k, r), off, kRec))
                 .ok()) {
          ok = false;
        }
        Bytes out(kRec);
        auto n = client.read(fh, off, out);
        if (!n.ok() || *n != kRec ||
            FindPatternMismatch(Tag(p.ranks, k, r), off, out) !=
                kNoMismatch) {
          ok = false;
        }
      }
      ends[actor] = client.now();
      client.close(fh);
    }
  });

  RunResult res;
  res.bytes = 2 * static_cast<std::uint64_t>(p.ranks) *
              static_cast<std::uint64_t>(p.rounds) * kRec;
  res.makespan_s = *std::max_element(ends.begin(), ends.end());
  res.mbs = static_cast<double>(res.bytes) / res.makespan_s / 1e6;
  res.bytes_ok = ok.load();
  res.lock_conflicts = reg.counter("pfs.lock_conflicts").value();
  res.lock_skips = reg.counter("consist.lock_skips").value();
  res.publishes = reg.counter("mds.publishes").value();
  res.retries = inj.retries();

  const auto events = obs::CollectEvents(tracer);
  for (const auto& e : events) {
    if (e.is_span() && e.name == "lock_wait") res.lock_wait_s += e.dur;
  }
  res.check = consist::CheckConsistency(events, model);
  if (!res.check.clean) {
    res.first_violation = consist::FormatViolation(res.check.first, events);
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (out) {
      tracer.write_compact(out);
      std::cout << "trace: wrote " << tracer.size() << " events to "
                << trace_path << " (audit with `trace_tool " << trace_path
                << " --check " << consist::ConsistencyModelName(model)
                << "`)\n";
    } else {
      std::cerr << "trace: cannot open " << trace_path << "\n";
    }
  }
  return res;
}

/// Sweeps the four models over one workload family and reports one BENCH
/// row per model plus a summary row (monotonicity + relaxation speedup).
bool SweepScenario(const std::string& name, const SweepParams& p,
                   const std::string& trace_base) {
  PrintBanner(std::cout, "scenario: " + name + " (" + std::to_string(p.ranks) +
                             " ranks x " + std::to_string(p.rounds) +
                             " rounds)");
  bench::Report tbl(
      kBench,
      {{"", "scenario"}, {"model", "model"},
       {"throughput", "mbs", [](double mbs) { return FormatRate(mbs * 1e6); }},
       {"makespan", "makespan_s", FormatDuration}, {"lock wait", "lock_wait_s", FormatDuration},
       {"conflicts", "lock_conflicts", FormatCount}, {"", "lock_skips"},
       {"publishes", "publishes", FormatCount}, {"retries", "retries", FormatCount},
       {"", "checked_reads"}, {"checker", "clean", bench::Flag("clean", "VIOLATION")}});
  std::vector<RunResult> runs;
  bool all_clean = true;
  for (consist::ConsistencyModel m : consist::kAllConsistencyModels) {
    const std::string mname(consist::ConsistencyModelName(m));
    const std::string tpath =
        trace_base.empty() ? "" : trace_base + "." + name + "." + mname + ".trace";
    RunResult res = RunOne(m, p, tpath);
    const bool run_ok = res.check.clean && res.bytes_ok;
    all_clean = all_clean && run_ok;
    if (!res.check.clean) {
      std::cout << "checker: " << mname << ": " << res.first_violation << "\n";
    }
    if (!res.bytes_ok) {
      std::cout << "verify: " << mname << ": read bytes did not match the "
                << "written pattern\n";
    }
    tbl.row({name, mname, res.mbs, res.makespan_s, res.lock_wait_s, res.lock_conflicts,
             res.lock_skips, res.publishes, res.retries, res.check.stats.content_checks,
             run_ok});
    runs.push_back(std::move(res));
  }
  tbl.print();

  // The acceptance shape: relaxing the model never loses throughput.
  // (The fpp control runs the identical op stream, so its four makespans
  // are bit-identical and the comparison degenerates to equality.)
  bool monotone = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].mbs + 1e-9 * runs[i - 1].mbs < runs[i - 1].mbs) monotone = false;
  }
  const double speedup = runs.back().mbs / runs.front().mbs;
  const double reclaimed = runs.front().lock_wait_s - runs.back().lock_wait_s;
  std::cout << "relaxation: " << FormatDouble(speedup, 2)
            << "x mpiio-vs-posix, " << FormatDuration(reclaimed)
            << " of lock wait reclaimed, throughput "
            << (monotone ? "monotone non-decreasing" : "NOT MONOTONE") << "\n";
  bench::Report::Emit(kBench, {{"scenario", name},
                               {"model", "summary"},
                               {"monotone", monotone},
                               {"relax_speedup", speedup},
                               {"lock_wait_reclaimed_s", reclaimed},
                               {"all_clean", all_clean}});
  return all_clean && monotone;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Consistency-model throughput sweep (pdsi::consist)",
                "POSIX -> session -> commit -> MPI-IO relaxation reclaims "
                "lock-manager time on shared files (arXiv 2402.14105); every "
                "run is audited clean by the trace-driven checker");
  const std::string trace_base = bench::TraceFlag(argc, argv);

  SweepParams p;

  bool ok = true;
  p.shared = true;
  p.faulty = false;
  ok = SweepScenario("shared_nofault", p, trace_base) && ok;
  p.faulty = true;
  ok = SweepScenario("shared_fault", p, trace_base) && ok;
  p.shared = false;
  p.faulty = false;
  ok = SweepScenario("fpp_nofault", p, trace_base) && ok;
  p.faulty = true;
  ok = SweepScenario("fpp_fault", p, trace_base) && ok;

  bench::Note("shape check: shared-file POSIX pays the whole-file lock "
              "chain; session converts it to open/close publishes, commit "
              "to one sync publish, mpiio to the amortised collective "
              "fraction — strictly cheaper in that order. File-per-process "
              "is the control: no sharing, identical op stream, identical "
              "virtual time under all four models.");
  if (!ok) {
    std::cerr << "ext16_consistency: FAILED (checker violation or "
                 "non-monotone relaxation)\n";
    return 1;
  }
  return 0;
}
