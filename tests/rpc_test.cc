// pdsi::rpc — the client request engine: the unified retry/backoff
// schedule (one definition for the chunk path and the availability-wait
// path), sync-mode pass-through neutrality, and the pipelined mode's
// window/batch/drain semantics with run-twice byte-identical traces.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/fault/fault.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/rpc/engine.h"

namespace pdsi {
namespace {

constexpr double kForever = 1e18;

// ---------------------------------------------------------------------------
// RetryPolicy: the single backoff schedule.

TEST(RetryPolicy, PenaltySchedulePinned) {
  rpc::RetryPolicy p;  // defaults mirror fault::FaultPlan
  EXPECT_EQ(p.penalty(0), p.rpc_timeout_s + p.retry_backoff_s * 1.0);
  EXPECT_EQ(p.penalty(1), p.rpc_timeout_s + p.retry_backoff_s * 2.0);
  EXPECT_EQ(p.penalty(5), p.rpc_timeout_s + p.retry_backoff_s * 32.0);
  // The shift saturates: attempt 20 and beyond charge the same penalty,
  // so pathological retry budgets cannot overflow the schedule.
  EXPECT_EQ(p.penalty(20), p.penalty(25));
  EXPECT_EQ(p.penalty(20), p.rpc_timeout_s + p.retry_backoff_s * 1048576.0);
}

/// Sum of the full backoff schedule a request charges before giving up.
double FullScheduleSeconds(const fault::FaultPlan& plan) {
  const rpc::RetryPolicy policy{plan.rpc_timeout_s, plan.retry_backoff_s,
                                plan.max_retries};
  double s = 0.0;
  for (std::uint32_t a = 0; a < plan.max_retries; ++a) s += policy.penalty(a);
  return s;
}

TEST(RetryPolicy, WriteAndAwaitChargeIdenticalSchedules) {
  // Before the engine, serve_chunk and await_server each computed the
  // timeout + exponential-backoff penalty independently; both now run
  // through RequestEngine::execute. A write against a dead server and an
  // fsync await of a dead server must charge the exact same schedule.
  const fault::FaultPlan plan;  // defaults

  // Failed write: every attempt sees the server down.
  double write_fail_s = 0.0;
  {
    sim::VirtualScheduler sched(1);
    pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(1), sched);
    fault::FaultInjector inj(plan, 1);
    inj.force_down(0, 0.0, kForever);
    cluster.set_fault(&inj);
    pfs::PfsClient client(cluster, 0);
    auto fh = *client.create("/f");
    const double before = client.now();
    EXPECT_FALSE(client.write(fh, 0, Bytes(4096)).ok());
    write_fail_s = client.now() - before;
  }

  // Failed fsync await: the server was touched while healthy, then died.
  double await_fail_s = 0.0;
  {
    sim::VirtualScheduler sched(1);
    pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(1), sched);
    pfs::PfsClient client(cluster, 0);
    auto fh = *client.create("/f");
    EXPECT_TRUE(client.write(fh, 0, Bytes(4096)).ok());
    fault::FaultInjector inj(plan, 1);
    inj.force_down(0, client.now(), kForever);
    cluster.set_fault(&inj);
    const double before = client.now();
    EXPECT_FALSE(client.fsync(fh).ok());
    await_fail_s = client.now() - before;
  }

  // DOUBLE_EQ: the two schedules accumulate from different absolute
  // start times, so the last few bits of the summed durations may differ
  // even though every penalty term is identical.
  EXPECT_DOUBLE_EQ(write_fail_s, await_fail_s)
      << "both paths must charge the engine's one retry schedule";
  EXPECT_DOUBLE_EQ(write_fail_s, FullScheduleSeconds(plan))
      << "and that schedule is exactly the RetryPolicy penalty sum";
}

// ---------------------------------------------------------------------------
// Sync mode (window == batch == 1): the engine is a pass-through.

TEST(RpcEngine, SyncModeAddsNoInstrumentsOrQueueing) {
  obs::Registry reg;
  obs::Tracer tr;
  obs::Context ctx{&tr, &reg};
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(4), sched, nullptr, &ctx);
  pfs::PfsClient client(cluster, 0);
  EXPECT_FALSE(client.pipelined());
  auto fh = *client.create("/f");
  EXPECT_TRUE(client.write(fh, 0, MakePattern(3, 0, 2 * MiB + 17)).ok());
  Bytes out(64 * KiB);
  EXPECT_TRUE(client.read(fh, 0, out).ok());
  EXPECT_TRUE(client.close(fh).ok());

  // The sync client never routes through submit()/drain(), so the
  // engine's accounting — and its rpc.* instruments — must not exist.
  const rpc::EngineStats& st = client.rpc_stats();
  EXPECT_EQ(st.submitted, 0u);
  EXPECT_EQ(st.messages, 0u);
  EXPECT_EQ(st.window_stalls, 0u);
  EXPECT_EQ(st.drains, 0u);
  std::ostringstream os;
  reg.write_text(os);
  EXPECT_EQ(os.str().find("rpc."), std::string::npos)
      << "sync runs must not create rpc.* instruments (metric dumps stay "
         "byte-identical to the pre-engine client)";
}

// ---------------------------------------------------------------------------
// Pipelined mode: window saturation, batch boundaries, drain semantics.

TEST(RpcEngine, WindowSaturationBoundsInflight) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.rpc_window = 2;
  cfg.rpc_batch = 1;
  pfs::PfsCluster cluster(cfg, sched);
  pfs::PfsClient client(cluster, 0);
  EXPECT_TRUE(client.pipelined());
  auto fh = *client.create("/f");
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(client.write(fh, static_cast<std::uint64_t>(i) * 4096, Bytes(4096)).ok());
  }
  EXPECT_TRUE(client.fsync(fh).ok());
  const rpc::EngineStats& st = client.rpc_stats();
  EXPECT_LE(st.max_inflight, 2u) << "the window is a hard bound";
  EXPECT_EQ(st.max_inflight, 2u) << "and 16 back-to-back writes saturate it";
  EXPECT_GT(st.window_stalls, 0u);
  EXPECT_GT(st.stall_s, 0.0);
  EXPECT_EQ(client.rpc_stats().failures, 0u);
}

TEST(RpcEngine, BatchFlushBoundariesAccountedExactly) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(1);  // one OSS: one data queue
  cfg.rpc_window = 64;  // never stall: isolate the batch accounting
  cfg.rpc_batch = 4;
  pfs::PfsCluster cluster(cfg, sched);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");  // 1 MDS request, queued
  for (int i = 0; i < 10; ++i) {   // 10 chunk requests on queue 0
    EXPECT_TRUE(client.write(fh, static_cast<std::uint64_t>(i) * 4096, Bytes(4096)).ok());
  }
  EXPECT_TRUE(client.fsync(fh).ok());   // drain: 2 leftover chunks + the MDS op
  EXPECT_TRUE(client.close(fh).ok());   // second drain (empty)
  const rpc::EngineStats& st = client.rpc_stats();
  EXPECT_EQ(st.submitted, 11u);  // 1 create + 10 chunks
  // Queue 0 flushed twice on batch boundaries (4, 4) and once at drain
  // (2); the MDS queue flushed once at drain (1): 4 wire messages.
  EXPECT_EQ(st.messages, 4u);
  EXPECT_EQ(st.batched_tails, 11u - 4u) << "everything else rode a message";
  EXPECT_EQ(st.window_stalls, 0u) << "window 64 never saturates here";
  EXPECT_EQ(st.drains, 2u);  // fsync + close
  EXPECT_EQ(st.failures, 0u);
  EXPECT_EQ(client.rpc_stats().max_inflight, 11u);
}

TEST(RpcEngine, AsyncWriteErrorLatchesUntilFsync) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(1);
  cfg.rpc_window = 4;
  cfg.rpc_batch = 2;
  pfs::PfsCluster cluster(cfg, sched);
  fault::FaultInjector inj(fault::FaultPlan{}, 1);
  inj.force_down(0, 0.0, kForever);
  cluster.set_fault(&inj);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");
  // Pipelined writes return before their chunk executes: submission
  // succeeds even though the server is dead (async-I/O semantics).
  EXPECT_TRUE(client.write(fh, 0, Bytes(4096)).ok());
  // fsync drains the queue, the chunk exhausts its retries against the
  // dead server, and the failure surfaces here.
  EXPECT_FALSE(client.fsync(fh).ok());
  EXPECT_EQ(client.rpc_stats().failures, 1u);
  // The failed chunk never landed, so no server registered as touched and
  // the latched error was consumed: the next sync point reports clean.
  const std::uint64_t fid = cluster.mds().lookup("/f")->file_id;
  EXPECT_TRUE(cluster.touched_servers(fid).empty());
  EXPECT_TRUE(client.fsync(fh).ok());
}

// ---------------------------------------------------------------------------
// Determinism: pipelined runs replay byte-identically.

struct PipelinedRun {
  std::string dump;     ///< compact trace + metric text
  double final_now;     ///< client clock after the last sync point
  std::uint64_t drops;  ///< injector draws consumed
};

PipelinedRun RunPipelinedGolden(std::uint32_t window, std::uint32_t batch) {
  obs::Registry reg;
  obs::Tracer tr;
  obs::Context ctx{&tr, &reg};
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.rpc_window = window;
  cfg.rpc_batch = batch;
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.rpc_drop_prob = 0.15;  // exercise the retry seam under pipelining
  fault::FaultInjector inj(plan, 4);
  cluster.set_fault(&inj);
  pfs::PfsClient client(cluster, 0);

  auto fh = *client.create("/shared");
  const auto rec = MakePattern(5, 0, 47 * KiB);
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(
        client.write(fh, static_cast<std::uint64_t>(i) * rec.size(), rec).ok());
  }
  Bytes out(rec.size());
  EXPECT_TRUE(client.read(fh, 3 * rec.size(), out).ok());  // read barrier
  EXPECT_EQ(HashBytes(out), HashBytes(rec));
  EXPECT_TRUE(client.fsync(fh).ok());
  EXPECT_TRUE(client.close(fh).ok());
  PipelinedRun run;
  run.final_now = client.now();
  run.drops = inj.dropped_rpcs();
  std::ostringstream os;
  tr.write_compact(os);
  reg.write_text(os);
  run.dump = os.str();
  return run;
}

TEST(RpcEngine, PipelinedRunsAreByteIdentical) {
  const PipelinedRun a = RunPipelinedGolden(8, 4);
  const PipelinedRun b = RunPipelinedGolden(8, 4);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.dump, b.dump)
      << "per-server FIFO queues + seeded drop streams: no replay drift";
  // And the knobs are load-bearing: a different window/batch really is a
  // different schedule.
  const PipelinedRun c = RunPipelinedGolden(2, 2);
  EXPECT_NE(a.final_now, c.final_now);
}

// The golden pipelined run's rpc.* and fault.* counters are pinned to
// exact values: the seeded drop stream, the window/batch schedule, and
// the retry accounting are all load-bearing, so any drift in engine
// bookkeeping (not just timing) fails loudly here.
TEST(RpcEngine, PipelinedGoldenCountersArePinned) {
  obs::Registry reg;
  obs::Tracer tr;
  obs::Context ctx{&tr, &reg};
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.rpc_window = 8;
  cfg.rpc_batch = 4;
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.rpc_drop_prob = 0.15;
  fault::FaultInjector inj(plan, 4, &ctx);
  cluster.set_fault(&inj);
  pfs::PfsClient client(cluster, 0);

  auto fh = *client.create("/shared");
  const auto rec = MakePattern(5, 0, 47 * KiB);
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(
        client.write(fh, static_cast<std::uint64_t>(i) * rec.size(), rec).ok());
  }
  Bytes out(rec.size());
  EXPECT_TRUE(client.read(fh, 3 * rec.size(), out).ok());
  EXPECT_TRUE(client.fsync(fh).ok());
  EXPECT_TRUE(client.close(fh).ok());

  // 24 pipelined writes + the fsync flush fan-out ride the queues; the
  // read and its drain are synchronous. 26 queued requests coalesce into
  // 8 wire messages under batch=4; window=8 stalls 18 times; the read,
  // fsync and close each drain.
  EXPECT_EQ(reg.counter("rpc.submitted").value(), 26u);
  EXPECT_EQ(reg.counter("rpc.messages").value(), 8u);
  EXPECT_EQ(reg.counter("rpc.window_stalls").value(), 18u);
  EXPECT_EQ(reg.counter("rpc.drains").value(), 3u);
  // Seed 11 at 15% drop: exactly two requests drop and retry once each;
  // no replica failover, no drain-side retries.
  EXPECT_EQ(reg.counter("fault.retries").value(), 2u);
  EXPECT_EQ(reg.counter("fault.dropped_rpcs").value(), 2u);
  EXPECT_EQ(reg.counter("fault.failovers").value(), 0u);
  EXPECT_EQ(reg.counter("fault.drain_retries").value(), 0u);
  EXPECT_EQ(inj.dropped_rpcs(), 2u);
}

// ---------------------------------------------------------------------------
// The point of the engine: pipelining beats one-RPC-at-a-time.

double MetadataStormSeconds(std::uint32_t window, std::uint32_t batch) {
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.rpc_window = window;
  cfg.rpc_batch = batch;
  pfs::PfsCluster cluster(cfg, sched);
  pfs::PfsClient client(cluster, 0);
  auto fh = *client.create("/f");
  EXPECT_TRUE(client.close(fh).ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(client.stat("/f").ok());
  }
  EXPECT_TRUE(client.unlink("/f").ok());  // sync point: drains the queue
  const double t = client.now();
  return t;
}

TEST(RpcEngine, PipelinedBeatsSyncOnMetadataStorm) {
  const double sync_s = MetadataStormSeconds(1, 1);
  const double pipe_s = MetadataStormSeconds(8, 4);
  EXPECT_LT(pipe_s, sync_s)
      << "a batched window must beat one synchronous RPC at a time";
}

}  // namespace
}  // namespace pdsi
