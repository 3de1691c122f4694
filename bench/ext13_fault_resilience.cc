// Extension — fault resilience: the simulator meets the failure regime
// the PDSI report is about (component failures dominate petascale
// behaviour; Fig. 4 MTTI projection).
//
// Three studies of pdsi::fault, all on virtual time and byte-reproducible:
//   1. goodput vs fault rate — the N-1 strided checkpoint through the
//      full PfsClient stack while OSS crashes and dropped RPCs trigger
//      client timeout/backoff retries;
//   2. degraded restart read — a PLFS container read back with one OSS
//      down: plfs::Reader reports zero-filled holes plus an error count
//      instead of aborting the restart;
//   3. coupled checkpoint model — failure::CheckpointSim driven by the
//      injector's actual crash schedule instead of the analytic Weibull
//      process, against the analytic run at the same MTTI.
//
// Gate (exit 1, reason on stderr): the fault-free row has no write errors
// and no retries; every crash row's goodput is below the fault-free row's;
// the degraded restart read returns every byte, counts read errors and
// keeps some but not all of the checkpoint; the injected checkpoint sim
// reruns bit-identically.
#include <algorithm>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/failure/checkpoint_sim.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/reader.h"
#include "pdsi/plfs/writer.h"

using namespace pdsi;

namespace {

constexpr char kBench[] = "ext13_fault_resilience";

struct CheckpointRun {
  double seconds = 0.0;
  std::uint64_t bytes_ok = 0;
  std::uint64_t write_errors = 0;
};

// N-1 strided checkpoint through the full client stack (locks, striping,
// retry path). Failed writes are counted and skipped — the application
// keeps going, so goodput is successful bytes over wall time.
CheckpointRun RunFaultyCheckpoint(pfs::PfsCluster& cluster, std::uint32_t ranks,
                                  std::uint64_t record, std::uint32_t records) {
  sim::VirtualScheduler& sched = cluster.scheduler();
  sim::VirtualBarrier barrier(sched);

  CheckpointRun out;
  std::mutex mu;
  out.seconds = sched.run([&](std::size_t r) {
    pfs::PfsClient client(cluster, r);
    pfs::FileHandle fh{};
    if (r == 0) {
      fh = *client.create("/ckpt");
      barrier.arrive(r);
    } else {
      barrier.arrive(r);
      fh = *client.open("/ckpt");
    }
    std::uint64_t ok_bytes = 0;
    std::uint64_t errors = 0;
    for (std::uint32_t i = 0; i < records; ++i) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(i) * ranks + r) * record;
      Bytes data(record);  // contents irrelevant in timing mode
      if (client.write(fh, off, data).ok()) {
        ok_bytes += record;
      } else {
        ++errors;
      }
    }
    client.close(fh);  // may fail if a server is down; the rank is done
    barrier.arrive(r);
    std::lock_guard<std::mutex> lk(mu);
    out.bytes_ok += ok_bytes;
    out.write_errors += errors;
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Fault resilience: injected OSS crashes, dropped RPCs, "
                "degraded restart reads",
                "Fig. 4 MTTI projection: at petascale the storage system is "
                "always partially failed; clients must retry, fail over, and "
                "restart from what survives");
  bool failed = false;
  auto gate = [&failed](bool ok, const std::string& what) {
    if (ok) return;
    std::cerr << kBench << ": FAILED: " << what << "\n";
    failed = true;
  };
  // --trace <path>: the mtbf=30s sweep row is traced (fault.* retry spans
  // interleaved with the oss/rank tracks); other rows stay untraced so
  // each track holds a single unambiguous run.
  bench::BenchObs trace(bench::TraceFlag(argc, argv),
                        bench::ProfileFlag(argc, argv), kBench);

  // ---- 1. goodput vs fault rate -------------------------------------------
  PrintBanner(std::cout, "N-1 strided checkpoint vs injected faults "
                         "(timeout + exponential-backoff retries)");
  const std::uint32_t kRanks = 8;
  const std::uint64_t kRecord = 47 * KiB;
  const std::uint32_t kRecords = 24;

  // The whole checkpoint lasts well under a second of virtual time, so the
  // crash process is scaled to that window (a petascale hour compressed):
  // MTBF a handful of checkpoint-lengths, restart a large fraction of the
  // client's total retry budget (~160 ms) so some writes ride out a crash
  // and some exhaust their retries and fail.
  struct SweepPoint {
    const char* label;
    double mtbf_s;
    double restart_s;
    double drop_prob;
    bool traced;
  };
  const SweepPoint sweep[] = {
      {"fault-free", 0.0, 0.0, 0.0, false},
      {"crash mtbf 1s", 1.0, 0.2, 0.0, false},
      {"crash mtbf 0.3s", 0.3, 0.2, 0.0, true},
      {"drop 0.1%", 0.0, 0.0, 1e-3, false},
      {"drop 2%", 0.0, 0.0, 2e-2, false},
  };

  bench::Report t1(kBench, {{"", "mode"}, {"faults", "faults"}, {"", "oss_mtbf_s"},
                            {"", "rpc_drop_prob"}, {"wall", "wall_seconds", FormatDuration},
                            {"goodput", "goodput_mbs", FormatRate, 1e6},
                            {"errors", "write_errors", bench::Fixed(0)},
                            {"retries", "retries", bench::Fixed(0)}, {"", "dropped_rpcs"},
                            {"failovers", "failovers", bench::Fixed(0)}, {"", "crashes"}});
  double clean_goodput = 0.0;
  for (const SweepPoint& pt : sweep) {
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.oss_mtbf_s = pt.mtbf_s;
    plan.oss_restart_s = pt.restart_s;
    plan.rpc_drop_prob = pt.drop_prob;
    plan.horizon_s = 60.0;  // generous slack past the run's virtual end

    obs::Context* ctx = pt.traced ? trace.ctx() : nullptr;
    sim::VirtualScheduler sched(kRanks);
    pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
    cfg.store_data = false;
    pfs::PfsCluster cluster(cfg, sched, nullptr, ctx);
    fault::FaultInjector inj(plan, cluster.num_oss(), ctx);
    cluster.set_fault(&inj);

    const CheckpointRun run = RunFaultyCheckpoint(cluster, kRanks, kRecord, kRecords);
    const double goodput = static_cast<double>(run.bytes_ok) / run.seconds;
    if (!plan.active()) {
      clean_goodput = goodput;
      gate(run.write_errors == 0 && inj.retries() == 0,
           "the fault-free row has write errors or retries");
    } else if (pt.mtbf_s > 0) {
      gate(goodput < clean_goodput,
           std::string(pt.label) + " goodput is not below the fault-free row's");
    }
    t1.row({"sweep", pt.label, pt.mtbf_s, pt.drop_prob, run.seconds, goodput,
            run.write_errors, inj.retries(), inj.dropped_rpcs(), inj.failovers(),
            inj.crash_count()});
  }
  t1.print();
  bench::Note("the fault-free row is byte-identical to a build without the "
              "fault layer (zero plan = zero behavioural change at " +
              FormatRate(clean_goodput) + "); crash windows turn into timed-out "
              "writes and lost goodput, dropped RPCs into cheap retries");

  // ---- 2. degraded restart read -------------------------------------------
  PrintBanner(std::cout, "PLFS restart read with one OSS down "
                         "(degraded_reads: holes + error count, no abort)");
  {
    sim::VirtualScheduler sched(1);
    pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(8);
    pfs::PfsCluster cluster(cfg, sched);
    auto backend = plfs::MakePfsBackend(cluster, 0);
    plfs::WriteClock wclock{0};
    plfs::Options wopt;

    // Two ranks, disjoint halves of the logical file, 64 KiB records.
    const std::uint64_t kHalf = 2 * MiB;
    const std::uint64_t kRec = 64 * KiB;
    for (std::uint32_t rank = 0; rank < 2; ++rank) {
      auto w = plfs::Writer::Open(*backend, "/restart", rank, wopt, wclock);
      const std::uint64_t base = rank * kHalf;
      Bytes rec(kRec, 0xAB);
      for (std::uint64_t o = 0; o < kHalf; o += kRec) (*w)->write(base + o, rec);
      (*w)->close();
    }

    // Map each rank's data dropping onto servers so we can crash a server
    // that holds rank 1's log but not rank 0's (partial loss, not total).
    pfs::PfsClient lister(cluster, 0);
    std::vector<std::vector<std::uint32_t>> data_servers(2);
    auto top = lister.readdir("/restart");
    for (const auto& name : *top) {
      if (name.rfind("hostdir.", 0) != 0) continue;
      const std::string hostdir = "/restart/" + name;
      const auto entries = lister.readdir(hostdir);
      for (const auto& e : *entries) {
        if (e.rfind("data.", 0) != 0) continue;
        const std::uint32_t rank = static_cast<std::uint32_t>(
            std::stoul(e.substr(5)));
        auto inode = cluster.mds().lookup(hostdir + "/" + e);
        cluster.for_each_chunk(
            inode->file_id, 0, inode->size,
            [&](std::uint32_t server, std::uint64_t, std::uint64_t) {
              data_servers[rank].push_back(server);
              return true;
            });
      }
    }
    std::uint32_t victim = cluster.num_oss();
    for (std::uint32_t s : data_servers[1]) {
      if (std::find(data_servers[0].begin(), data_servers[0].end(), s) ==
          data_servers[0].end()) {
        victim = s;
        break;
      }
    }
    // Placement is deterministic, so this only triggers if the two logs
    // happen to share every server — degrade both rather than neither.
    if (victim == cluster.num_oss()) victim = data_servers[1].front();

    // Build the global index while the cluster is healthy (a degraded
    // *build* is unit-tested; here the restart loses a data server after
    // the index merge), then crash the victim for good. The injector is
    // declared first so it outlives the reader, whose destructor closes
    // its files through the cluster's fault hook.
    fault::FaultPlan fp;
    fp.read_failover = false;  // single-copy: reads must fail through
    fault::FaultInjector inj(fp, cluster.num_oss());
    plfs::Options ropt;
    ropt.degraded_reads = true;
    auto reader = plfs::Reader::Open(*backend, "/restart", ropt);
    inj.force_down(victim, 0.0, 1e18);
    cluster.set_fault(&inj);

    Bytes out(2 * kHalf);
    auto n = (*reader)->read(0, out);
    const std::uint64_t zeros = static_cast<std::uint64_t>(
        std::count(out.begin(), out.end(), static_cast<std::uint8_t>(0)));
    const double survived = static_cast<double>(out.size() - zeros) /
                            static_cast<double>(out.size());
    bench::Report(kBench, {{"", "mode"}, {"logical bytes", "bytes", FormatBytes},
                           {"returned", "returned",
                            [](double b) { return b < 0 ? "error" : FormatBytes(b); }},
                           {"zero-filled (lost)", "zero_bytes", FormatBytes},
                           {"read errors", "read_errors", bench::Fixed(0)},
                           {"", "survived_fraction"}})
        .metrics({"degraded_read", out.size(), n.ok() ? static_cast<double>(*n) : -1.0, zeros,
                  (*reader)->read_errors(), survived});
    bench::Note("the restart keeps " +
                FormatDouble(100.0 * static_cast<double>(out.size() - zeros) /
                                 static_cast<double>(out.size()), 1) +
                "% of the checkpoint instead of aborting; without "
                "degraded_reads the same read returns EIO");
    gate(n.ok() && *n == out.size(),
         "the degraded restart read did not return every byte");
    gate((*reader)->read_errors() > 0 && survived > 0.0 && survived < 1.0,
         "the degraded restart read must count read errors and keep part, "
         "but not all, of the checkpoint");
  }

  // ---- 3. checkpoint sim on the injected schedule --------------------------
  PrintBanner(std::cout, "Fig. 5 checkpoint sim: analytic Weibull vs the "
                         "injector's actual crash schedule (same MTTI)");
  {
    fault::FaultPlan mplan;
    mplan.seed = 11;
    mplan.oss_mtbf_s = 24 * kHour;  // the whole machine as one component
    mplan.oss_restart_s = 10 * kMinute;
    mplan.horizon_s = 365 * kDay;
    fault::FaultInjector machine(mplan, 1);
    const std::vector<double> schedule = machine.interrupt_times();

    failure::CheckpointSimParams p;
    p.work_seconds = 60 * kDay;
    p.interval = kHour;
    p.checkpoint_seconds = 5 * kMinute;
    p.restart_seconds = 10 * kMinute;
    p.mtti_seconds = 24 * kHour;

    Rng ra(2026);
    const auto analytic = failure::SimulateCheckpointing(p, ra);
    p.interrupts = &schedule;
    Rng ri(2026);
    const auto injected = failure::SimulateCheckpointing(p, ri);
    Rng ri2(2026);
    const auto injected2 = failure::SimulateCheckpointing(p, ri2);
    const bool deterministic = injected.wall_seconds == injected2.wall_seconds &&
                               injected.failures == injected2.failures &&
                               injected.checkpoints == injected2.checkpoints;
    gate(deterministic, "the injected checkpoint sim does not rerun bit-identically");

    bench::Report t3(kBench, {{"", "mode"}, {"failure source", ""}, {"", "source"},
                              {"failures", "failures", bench::Fixed(0)},
                              {"utilisation", "utilization", bench::Pct(1)},
                              {"wall", "wall_seconds", FormatDuration}, {"", "deterministic"}});
    t3.row({"ckpt_sim", "analytic Weibull", "analytic", analytic.failures, analytic.utilization,
            analytic.wall_seconds, bench::Cell("")});
    t3.row({"ckpt_sim", "injected schedule", "injected", injected.failures,
            injected.utilization, injected.wall_seconds, deterministic});
    t3.print();
    bench::Note("same MTTI, two draws of the same process: the injected "
                "schedule couples lost work to faults the rest of the "
                "simulator actually experienced; rerunning the schedule is "
                "bit-stable (" +
                std::string(deterministic ? "verified" : "VIOLATED") +
                ")");
  }
  return failed ? 1 : 0;
}
