// Extension — the pdsi::rpc request engine: what a bounded in-flight
// window and batched wire messages buy a petascale client over the
// one-synchronous-RPC-at-a-time baseline. Three workload families, each
// swept over (window, batch) settings with the (1, 1) row as the sync
// anchor:
//
//   1. shared_small_writes — N ranks into one shared file, N-1 segmented
//      in small records (no locks, PVFS-style; each rank's segment is one
//      stripe, so ranks map one-to-one onto servers): the latency-bound
//      data plane. Sync pays a full round trip per record; the pipelined
//      window overlaps records until the OSS service pipeline, not the
//      wire, is the bound.
//   2. metadata_storm — one rank hammering the MDS with creates and
//      stats: the mdtest shape. Batching amortises the request latency
//      across coalesced ops, pipelining hides it behind the MDS service
//      queue; the ceiling is mds_op_s per op.
//   3. incast_fanin — one rank appending round-robin over many files,
//      one per server (fan-out of requests, fan-in of responses, the
//      Fig. 9 geometry): the case where the sync client is most absurd —
//      sixteen idle servers waiting on one client's round trips.
//
// Every run is verified: written records are read back and compared
// against the pattern, and sync-anchored rows must agree with the
// engine's accounting (no messages, no stalls in sync mode). The sweep
// fails the bench (exit 1) unless, for every scenario, at least one
// pipelined setting beats the sync row on op/s.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/rpc/engine.h"
#include "pdsi/sim/virtual_time.h"

using namespace pdsi;

namespace {

constexpr char kBench[] = "ext17_rpc_engine";

struct Setting {
  std::uint32_t window;
  std::uint32_t batch;
  std::string name() const {
    return "w" + std::to_string(window) + "b" + std::to_string(batch);
  }
  bool sync() const { return window == 1 && batch == 1; }
};

struct RunResult {
  double makespan_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  rpc::EngineStats rpc;  ///< summed over every rank's client
  bool bytes_ok = true;
  double opss() const { return static_cast<double>(ops) / makespan_s; }
  double mbs() const { return static_cast<double>(bytes) / makespan_s / 1e6; }
};

void Accumulate(rpc::EngineStats* into, const rpc::EngineStats& s) {
  into->submitted += s.submitted;
  into->messages += s.messages;
  into->batched_tails += s.batched_tails;
  into->window_stalls += s.window_stalls;
  into->drains += s.drains;
  into->failures += s.failures;
  into->max_inflight = std::max(into->max_inflight, s.max_inflight);
  into->stall_s += s.stall_s;
}

struct Shape {
  int ranks = 4;    ///< shared_small_writes clients
  int rounds = 64;  ///< records per rank (shared) / per file (incast)
  int meta_files = 96;          ///< metadata_storm creates (then stats)
  int incast_servers = 16;      ///< one file per server
  int incast_rounds = 48;       ///< appends per file
  std::uint64_t rec = 4 * KiB;  ///< small-record size
};

// ---------------------------------------------------------------------------
// Scenario 1: N ranks, small records into one shared file, N-1 segmented.

RunResult RunSharedSmallWrites(const Setting& s, const Shape& shape,
                               obs::Context* ctx) {
  pfs::PfsConfig cfg = pfs::PfsConfig::PvfsLike(4);  // no locks: pure RPC plane
  cfg.rpc_window = s.window;
  cfg.rpc_batch = s.batch;
  // One stripe per rank segment: each rank streams contiguously to its
  // own server, so the write-back cache aggregates and the sync row is
  // latency-bound rather than seek-bound (the strided pathology is
  // fig08/PLFS territory, not an RPC question).
  cfg.stripe_unit = static_cast<std::uint64_t>(shape.rounds) * shape.rec;
  const int ranks = shape.ranks;
  sim::VirtualScheduler sched(static_cast<std::size_t>(ranks));
  pfs::PfsCluster cluster(cfg, sched, nullptr, ctx);

  sim::VirtualBarrier barrier(sched);

  std::vector<double> ends(static_cast<std::size_t>(ranks), 0.0);
  std::vector<rpc::EngineStats> stats(static_cast<std::size_t>(ranks));
  std::atomic<bool> ok{true};
  sched.run([&](std::size_t actor) {
    const int r = static_cast<int>(actor);
    pfs::PfsClient client(cluster, actor);
    pfs::FileHandle fh = -1;
    if (r == 0) {
      fh = *client.create("/shared");
      barrier.arrive(actor);
    } else {
      barrier.arrive(actor);
      fh = *client.open("/shared");
    }
    for (int k = 0; k < shape.rounds; ++k) {
      const std::uint64_t off =
          static_cast<std::uint64_t>(r * shape.rounds + k) * shape.rec;
      const std::uint32_t tag = static_cast<std::uint32_t>(100 + r);
      if (!client.write(fh, off, MakePattern(tag, off, shape.rec)).ok()) {
        ok = false;
      }
    }
    if (!client.fsync(fh).ok()) ok = false;  // pipelined sync barrier
    // Read back this rank's last record: async writes must have landed.
    const std::uint64_t voff =
        static_cast<std::uint64_t>(r * shape.rounds + shape.rounds - 1) *
        shape.rec;
    Bytes out(shape.rec);
    auto n = client.read(fh, voff, out);
    if (!n.ok() || *n != shape.rec ||
        FindPatternMismatch(static_cast<std::uint32_t>(100 + r), voff, out) !=
            kNoMismatch) {
      ok = false;
    }
    ends[actor] = client.now();
    if (!client.close(fh).ok()) ok = false;
    stats[actor] = client.rpc_stats();
  });

  RunResult res;
  res.ops = static_cast<std::uint64_t>(ranks) *
            static_cast<std::uint64_t>(shape.rounds);
  res.bytes = res.ops * shape.rec;
  res.makespan_s = *std::max_element(ends.begin(), ends.end());
  for (const auto& st : stats) Accumulate(&res.rpc, st);
  res.bytes_ok = ok.load();
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 2: one rank, a storm of creates then stats (mdtest shape).

RunResult RunMetadataStorm(const Setting& s, const Shape& shape,
                           obs::Context* ctx) {
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.rpc_window = s.window;
  cfg.rpc_batch = s.batch;
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(cfg, sched, nullptr, ctx);
  pfs::PfsClient client(cluster, 0);

  bool ok = true;
  if (!client.mkdir("/storm").ok()) ok = false;
  for (int i = 0; i < shape.meta_files; ++i) {
    auto fh = client.create("/storm/f" + std::to_string(i));
    if (!fh.ok() || !client.close(*fh).ok()) ok = false;
  }
  for (int i = 0; i < shape.meta_files; ++i) {
    if (!client.stat("/storm/f" + std::to_string(i)).ok()) ok = false;
  }
  // unlink is a drain point: the queued MDS charges all land before the
  // namespace teardown, so the makespan covers the full storm.
  if (!client.unlink("/storm/f0").ok()) ok = false;

  RunResult res;
  res.ops = 2 * static_cast<std::uint64_t>(shape.meta_files) + 2;  // +mkdir+unlink
  res.makespan_s = client.now();
  res.rpc = client.rpc_stats();
  res.bytes_ok = ok;
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 3: one rank fanning small appends over one file per server.

RunResult RunIncastFanin(const Setting& s, const Shape& shape,
                         obs::Context* ctx) {
  pfs::PfsConfig cfg = pfs::PfsConfig::PvfsLike(
      static_cast<std::uint32_t>(shape.incast_servers));
  cfg.rpc_window = s.window;
  cfg.rpc_batch = s.batch;
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(cfg, sched, nullptr, ctx);
  pfs::PfsClient client(cluster, 0);

  bool ok = true;
  std::vector<pfs::FileHandle> fhs;
  for (int f = 0; f < shape.incast_servers; ++f) {
    auto fh = client.create("/fan" + std::to_string(f));
    if (!fh.ok()) ok = false;
    fhs.push_back(fh.ok() ? *fh : -1);
  }
  for (int k = 0; k < shape.incast_rounds; ++k) {
    for (int f = 0; f < shape.incast_servers; ++f) {
      const std::uint64_t off = static_cast<std::uint64_t>(k) * shape.rec;
      const std::uint32_t tag = static_cast<std::uint32_t>(500 + f);
      if (!client.write(fhs[static_cast<std::size_t>(f)], off,
                        MakePattern(tag, off, shape.rec))
               .ok()) {
        ok = false;
      }
    }
  }
  for (int f = 0; f < shape.incast_servers; ++f) {
    if (!client.fsync(fhs[static_cast<std::size_t>(f)]).ok()) ok = false;
  }
  // Verify one file end to end.
  Bytes out(shape.rec);
  auto n = client.read(fhs[0], 0, out);
  if (!n.ok() || *n != shape.rec ||
      FindPatternMismatch(500, 0, out) != kNoMismatch) {
    ok = false;
  }
  for (int f = 0; f < shape.incast_servers; ++f) {
    if (!client.close(fhs[static_cast<std::size_t>(f)]).ok()) ok = false;
  }

  RunResult res;
  res.ops = static_cast<std::uint64_t>(shape.incast_rounds) *
            static_cast<std::uint64_t>(shape.incast_servers);
  res.bytes = res.ops * shape.rec;
  res.makespan_s = client.now();
  res.rpc = client.rpc_stats();
  res.bytes_ok = ok;
  return res;
}

// ---------------------------------------------------------------------------
// Sweep driver.

using Runner = RunResult (*)(const Setting&, const Shape&, obs::Context*);

bool SweepScenario(const std::string& name, Runner run, const Shape& shape,
                   const std::vector<Setting>& settings,
                   const std::string& trace_base) {
  PrintBanner(std::cout, "scenario: " + name);
  // The table marks the sync anchor's setting; its BENCH field does not.
  bench::Report tbl(kBench,
                    {{"", "scenario"}, {"setting", ""}, {"", "setting"}, {"", "window"},
                     {"", "batch"}, {"", "ops"}, {"op/s", "opss", FormatCount},
                     {"makespan", "makespan_s", FormatDuration},
                     {"messages", "messages", FormatCount}, {"tails", "batched_tails", FormatCount},
                     {"stalls", "window_stalls", FormatCount},
                     {"stall time", "stall_s", FormatDuration},
                     {"max infl", "max_inflight", FormatCount}, {"", "rpc_failures"},
                     {"verify", "verify_ok", bench::Flag("ok", "FAIL")}});
  double sync_opss = 0.0;
  double best_opss = 0.0;
  std::string best_name = "-";
  bool all_ok = true;
  for (const Setting& s : settings) {
    // Trace the sync anchor and the widest pipelined setting for the
    // EXPERIMENTS.md critical-path walkthrough.
    const bool traced = !trace_base.empty() &&
                        (s.sync() || &s == &settings.back());
    bench::BenchObs obs(traced ? trace_base + "." + name + "." + s.name() +
                                     ".trace"
                               : "");
    RunResult res = run(s, shape, obs.ctx());
    all_ok = all_ok && res.bytes_ok;
    if (s.sync()) {
      sync_opss = res.opss();
      // The sync anchor must be the pass-through client: nothing queued,
      // nothing batched, nothing stalled.
      if (res.rpc.messages != 0 || res.rpc.window_stalls != 0) all_ok = false;
    } else if (res.opss() > best_opss) {
      best_opss = res.opss();
      best_name = s.name();
    }
    tbl.row({name, s.sync() ? s.name() + " (sync)" : s.name(), s.name(), s.window, s.batch,
             res.ops, res.opss(), res.makespan_s, res.rpc.messages, res.rpc.batched_tails,
             res.rpc.window_stalls, res.rpc.stall_s, res.rpc.max_inflight, res.rpc.failures,
             res.bytes_ok});
  }
  tbl.print();
  const double speedup = sync_opss > 0.0 ? best_opss / sync_opss : 0.0;
  const bool beats_sync = best_opss > sync_opss;
  std::cout << "pipelining: best " << best_name << " at "
            << FormatDouble(speedup, 2) << "x the sync row ("
            << (beats_sync ? "beats sync" : "DOES NOT BEAT SYNC") << ")\n";
  bench::Report::Emit(kBench, {{"scenario", name},
                               {"setting", "summary"},
                               {"best", best_name},
                               {"pipeline_speedup", speedup},
                               {"beats_sync", beats_sync},
                               {"verify_all", all_ok}});
  return all_ok && beats_sync;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header(
      "RPC engine: window/batch sweep vs the synchronous client (pdsi::rpc)",
      "one outstanding RPC per client leaves a petascale machine idle "
      "(incast, mdtest storms); a bounded in-flight window with batched "
      "wire messages is resource-bound instead of latency-bound");
  const std::string trace_base = bench::TraceFlag(argc, argv);

  const Shape shape;

  const std::vector<Setting> settings = {
      {1, 1},   // the sync anchor: byte-identical to the pre-engine client
      {4, 1},   // window only: overlap without coalescing
      {8, 4},   // the balanced default for a pipelined client
      {32, 8},  // deep window: the fan-in case saturates per-server service
  };

  bool ok = true;
  ok = SweepScenario("shared_small_writes", RunSharedSmallWrites, shape,
                     settings, trace_base) &&
       ok;
  ok = SweepScenario("metadata_storm", RunMetadataStorm, shape, settings,
                     trace_base) &&
       ok;
  ok = SweepScenario("incast_fanin", RunIncastFanin, shape, settings,
                     trace_base) &&
       ok;

  bench::Note(
      "shape check: shared small writes and the incast fan-in are "
      "latency-bound in sync mode, so the window converts idle round trips "
      "into overlapped service; the metadata storm's ceiling is one MDS op "
      "per request, so its best case is rpc_latency/mds_op_s hidden — "
      "modest, exactly as mdtest behaves against a single MDS.");
  if (!ok) {
    std::cerr << "ext17_rpc_engine: FAILED (verification or no pipelined "
                 "setting beat the sync row)\n";
    return 1;
  }
  return 0;
}
