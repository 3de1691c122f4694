// Tests for the pdsi::bb burst-buffer tier: watermark backpressure,
// FIFO drain ordering, durability semantics (including failure-during-
// drain in the checkpoint simulator), clean-data eviction, the staging
// device geometries the buffer accepts, and the two acceptance numbers
// the ext12 bench reports (absorb speedup over direct-to-PFS,
// utilization uplift vs drain overlap). PLFS on the buffer is tested
// through tier::MakeTierBackend in tier_test. Everything runs on virtual
// time and is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pdsi/bb/burst_buffer.h"
#include "pdsi/bb/drain_target.h"
#include "pdsi/common/units.h"
#include "pdsi/failure/checkpoint_sim.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/storage/device_catalog.h"

namespace pdsi {
namespace {

using bb::BbParams;
using bb::BurstBuffer;
using bb::FixedRateDrainTarget;

BbParams FastDevice(std::uint64_t capacity) {
  BbParams p;
  p.ssd = storage::FlashDevice("fusionio-iodrive-duo");
  p.ssd.capacity_bytes = capacity;
  return p;
}

// -- Core: absorb + background drain ---------------------------------------

TEST(BurstBuffer, AbsorbsAtFlashSpeedAndDrainsInBackground) {
  BbParams p = FastDevice(512 * MiB);
  FixedRateDrainTarget pfs(100e6);  // 100 MB/s backing store
  BurstBuffer buf(p, pfs);

  const std::uint64_t total = 128 * MiB;
  double t = 0.0;
  for (std::uint64_t off = 0; off < total; off += MiB) {
    t = buf.write(1, off, MiB, t);
  }
  const double absorb_bw = static_cast<double>(total) / t;
  EXPECT_GT(absorb_bw, 400e6);  // near the device's 690 MB/s rating
  EXPECT_EQ(buf.stats().ingest_stalls, 0u);

  // Drains proceed in the background and finish around total/100MB/s.
  EXPECT_GT(buf.undrained_bytes(), 0u);
  const double durable_at = buf.flush(t);
  EXPECT_EQ(buf.undrained_bytes(), 0u);
  EXPECT_EQ(buf.stats().bytes_drained, total);
  EXPECT_NEAR(durable_at, static_cast<double>(total) / 100e6, 0.5);
  EXPECT_GT(durable_at, t);  // the PFS, not the flash, is the bottleneck
}

TEST(BurstBuffer, RejectsWritesLargerThanTheDevice) {
  BbParams p = FastDevice(64 * MiB);
  FixedRateDrainTarget pfs(100e6);
  BurstBuffer buf(p, pfs);
  EXPECT_THROW(buf.write(1, 0, 65 * MiB, 0.0), std::invalid_argument);
  BbParams bad = FastDevice(64 * MiB);
  bad.high_watermark = 0.2;
  bad.low_watermark = 0.5;  // inverted hysteresis
  EXPECT_THROW(BurstBuffer(bad, pfs), std::invalid_argument);
}

TEST(BurstBuffer, RejectsStagingDevicesWithTooFewSpareBlocks) {
  // The FTL keeps one erased block in reserve, the block it fills can
  // hold a block of invalid pages, and one log command programs up to a
  // block plus a straddled page, so the wrapping log needs more than
  // three erase blocks of spare pages beyond the logical capacity. At 25%
  // over-provisioning a 4 MiB FusionIO device has two (1024 logical
  // pages, 1280 physical) and can wedge; 8 MiB has four.
  FixedRateDrainTarget pfs(100e6);
  EXPECT_THROW(BurstBuffer(FastDevice(4 * MiB), pfs), std::invalid_argument);
  BbParams thin = FastDevice(64 * MiB);
  thin.ssd.over_provision = 0.02;  // 16 384 logical pages, three spare blocks
  EXPECT_THROW(BurstBuffer(thin, pfs), std::invalid_argument);

  // An accepted 8 MiB device takes a wrapping log of 512 KiB checkpoint
  // writes, eight times its capacity, through GC.
  BurstBuffer buf(FastDevice(8 * MiB), pfs);
  double t = 0.0;
  for (std::uint64_t off = 0; off < 64 * MiB; off += 512 * KiB) {
    t = buf.write(1, off, 512 * KiB, t);
  }
  EXPECT_EQ(buf.stats().bytes_absorbed, 64 * MiB);
  EXPECT_GT(buf.ssd().stats().erases, 0u);
}

// -- Backpressure -----------------------------------------------------------

// Exact-boundary regression for the watermark hysteresis documented in
// burst_buffer.h: backpressure engages when un-drained bytes reach the
// high mark exactly (>=), and releases only once they reach the low mark
// exactly (<=) — not one drain op earlier or later.
TEST(BurstBuffer, WatermarkHysteresisBoundariesAreInclusive) {
  BbParams p = FastDevice(64 * MiB);
  p.high_watermark = 0.50;  // 32 MiB exactly
  p.low_watermark = 0.25;   // 16 MiB exactly
  p.drain_unit = 16 * MiB;
  FixedRateDrainTarget slow_pfs(1e6);  // drains take ~17 s; absorbs take ms
  BurstBuffer buf(p, slow_pfs);

  const std::uint64_t high = 32 * MiB, low = 16 * MiB;
  // Two 16 MiB writes land un-drained bytes exactly on the high mark
  // without crossing it mid-write (the watermark check precedes absorb).
  double t = buf.write(1, 0, 16 * MiB, 0.0);
  t = buf.write(1, 16 * MiB, 16 * MiB, t);
  ASSERT_EQ(buf.undrained_bytes(), high);
  ASSERT_EQ(buf.stats().ingest_stalls, 0u);

  // undrained == high exactly: a further write must stall (engage at >=,
  // not >). The stall drains 16 MiB-unit ops until undrained == low
  // exactly, then resumes (release at <= low, not < low) — so afterwards
  // exactly low + len bytes are un-drained. Had release required < low,
  // a second drain op would have completed first and left only `len`.
  const std::uint64_t len = 1024;
  const double t2 = buf.write(1, high, len, t);
  EXPECT_EQ(buf.stats().ingest_stalls, 1u);
  EXPECT_GT(buf.stats().stall_seconds, 1.0);  // waited on a ~17 s drain op
  EXPECT_GT(t2, t + 1.0);
  EXPECT_EQ(buf.undrained_bytes(), low + len);
}

TEST(BurstBuffer, IngestStallsAtHighWatermarkAndResumesAtLow) {
  BbParams p = FastDevice(64 * MiB);
  p.high_watermark = 0.50;
  p.low_watermark = 0.25;
  FixedRateDrainTarget slow_pfs(10e6);  // drain far slower than absorb
  BurstBuffer buf(p, slow_pfs);

  double t = 0.0;
  double slowest_write = 0.0;
  for (std::uint64_t off = 0; off < 48 * MiB; off += MiB) {
    const double start = t;
    t = buf.write(1, off, MiB, t);
    slowest_write = std::max(slowest_write, t - start);
  }
  ASSERT_GE(buf.stats().ingest_stalls, 1u);
  EXPECT_GT(buf.stats().stall_seconds, 0.5);
  // Hysteresis: the stalled writes resumed only once drains pulled the
  // backlog to the low watermark, so it now sits at/below low + one write.
  EXPECT_LE(buf.undrained_bytes(),
            static_cast<std::uint64_t>(p.low_watermark * 64 * MiB) + MiB);
  // A stalled write is served at drain speed: it waits out on the order of
  // (high-low)*capacity / drain_bw, far above any absorb time.
  EXPECT_GT(slowest_write, 0.1);

  // Identical ingest against a drain faster than absorb never stalls.
  BbParams q = FastDevice(64 * MiB);
  q.high_watermark = 0.50;
  q.low_watermark = 0.25;
  FixedRateDrainTarget fast_pfs(2000e6);
  BurstBuffer unstalled(q, fast_pfs);
  double u = 0.0;
  for (std::uint64_t off = 0; off < 48 * MiB; off += MiB) {
    u = unstalled.write(1, off, MiB, u);
  }
  EXPECT_EQ(unstalled.stats().ingest_stalls, 0u);
  EXPECT_EQ(unstalled.stats().stall_seconds, 0.0);
}

// -- Drain ordering ---------------------------------------------------------

TEST(BurstBuffer, DrainsInFifoWriteOrderWithCoalescing) {
  BbParams p = FastDevice(256 * MiB);
  p.drain_unit = 16 * MiB;
  FixedRateDrainTarget pfs(50e6);
  BurstBuffer buf(p, pfs);

  struct Sunk {
    std::uint64_t file, off, len;
  };
  std::vector<Sunk> sunk;
  buf.set_drain_sink([&](std::uint64_t f, std::uint64_t off, std::uint64_t len) {
    sunk.push_back({f, off, len});
  });

  // Shuffled offsets: FIFO order is write order, not offset order.
  const std::vector<std::uint64_t> chunks = {5, 0, 3, 1, 4, 2, 6, 7};
  double t = 0.0;
  for (std::uint64_t c : chunks) t = buf.write(1, c * MiB, MiB, t);
  buf.flush(t);

  ASSERT_FALSE(sunk.empty());
  EXPECT_EQ(sunk.front().off, 5 * MiB);  // first write drains first
  std::uint64_t total = 0;
  for (const auto& s : sunk) total += s.len;
  EXPECT_EQ(total, chunks.size() * MiB);

  // Contiguous writes coalesce into fewer, larger drain ops.
  BurstBuffer seq(p, pfs);
  std::uint64_t sink_calls = 0, sink_bytes = 0;
  seq.set_drain_sink([&](std::uint64_t, std::uint64_t, std::uint64_t len) {
    ++sink_calls;
    sink_bytes += len;
  });
  double s = 0.0;
  const int kChunks = 64;
  for (int c = 0; c < kChunks; ++c) s = seq.write(1, c * MiB, MiB, s);
  seq.flush(s);
  EXPECT_EQ(sink_bytes, static_cast<std::uint64_t>(kChunks) * MiB);
  EXPECT_LT(sink_calls, static_cast<std::uint64_t>(kChunks) / 2);
  EXPECT_EQ(seq.stats().drain_ops, sink_calls);
}

// -- Eviction ---------------------------------------------------------------

TEST(BurstBuffer, EvictsOnlyCleanDataUnderCapacityPressure) {
  BbParams p = FastDevice(64 * MiB);
  p.high_watermark = 0.95;  // keep watermark backpressure out of the way
  p.low_watermark = 0.20;
  FixedRateDrainTarget pfs(300e6);
  BurstBuffer buf(p, pfs);

  double t = 0.0;
  for (std::uint64_t off = 0; off < 48 * MiB; off += MiB) t = buf.write(1, off, MiB, t);
  t = buf.flush(t);  // file 1 fully drained: clean
  ASSERT_EQ(buf.dirty_bytes(), 0u);
  ASSERT_EQ(buf.stats().bytes_evicted, 0u);

  for (std::uint64_t off = 0; off < 48 * MiB; off += MiB) t = buf.write(2, off, MiB, t);
  // File 2 needed more space than was free: clean file-1 data went.
  EXPECT_GE(buf.stats().bytes_evicted, 32 * MiB);
  EXPECT_LE(buf.resident_bytes(), buf.capacity_bytes());

  // Oldest clean data went first: file 1's ranges are gone, while
  // recently staged file-2 data is resident.
  bool hit = true;
  buf.read(1, 0, MiB, t, &hit);
  EXPECT_FALSE(hit);
  buf.read(2, 47 * MiB, MiB, t, &hit);
  EXPECT_TRUE(hit);
}

// -- Checkpoint simulation: durability on failure ---------------------------

TEST(CheckpointSimBb, DirectRunMatchesGoldenResult) {
  // A direct checkpoint (no drain) is durable when its write returns:
  // nothing stalls or is lost mid-drain. The figures pin this seeded run.
  failure::CheckpointSimParams p;
  p.work_seconds = 10 * kDay;
  p.mtti_seconds = 12 * kHour;
  Rng rng(42);
  const auto r = failure::SimulateCheckpointing(p, rng);
  EXPECT_EQ(r.wall_seconds, 975992.50471394788);
  EXPECT_EQ(r.failures, 15u);
  EXPECT_EQ(r.checkpoints, 240u);
  EXPECT_EQ(r.lost_drains, 0u);
  EXPECT_EQ(r.stall_seconds, 0.0);
}

TEST(CheckpointSimBb, FailureDuringDrainLosesTheCheckpoint) {
  failure::CheckpointSimParams p;
  p.work_seconds = 20 * kDay;
  p.interval = kHour;
  p.mtti_seconds = 6 * kHour;
  p.checkpoint_seconds = 30.0;     // absorb
  p.drain_seconds = 30 * kMinute;  // long vulnerable window
  Rng rng(7);
  const auto r = failure::SimulateCheckpointing(p, rng);
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.lost_drains, 0u);      // some failures struck mid-drain
  EXPECT_LT(r.lost_drains, r.failures);  // ... but not all
  EXPECT_GT(r.utilization, 0.0);
}

TEST(CheckpointSimBb, UtilizationUpliftMonotoneUntilDrainBottleneck) {
  // Acceptance (b): failure-free sweep — as drain bandwidth rises (drain
  // time falls), utilization rises monotonically, then plateaus once the
  // drain fits inside the compute interval.
  failure::CheckpointSimParams base;
  base.work_seconds = 10 * kDay;
  base.interval = kHour;
  base.checkpoint_seconds = 300.0;
  base.mtti_seconds = 1e18;  // no failures: isolate the overlap effect
  Rng rng(1);
  const double direct = failure::SimulateCheckpointing(base, rng).utilization;

  const std::vector<double> drain_seconds = {4 * kHour,  2 * kHour, kHour,
                                             30 * kMinute, 10 * kMinute, kMinute};
  std::vector<double> util;
  for (double d : drain_seconds) {
    failure::CheckpointSimParams p = base;
    p.checkpoint_seconds = 30.0;  // absorb
    p.drain_seconds = d;
    Rng r2(1);
    const auto r = failure::SimulateCheckpointing(p, r2);
    util.push_back(r.utilization);
    // Steady state: cycle = max(interval, drain) + absorb.
    const double expect =
        base.interval / (std::max(base.interval, d) + p.checkpoint_seconds);
    EXPECT_NEAR(r.utilization, expect, 0.01) << "drain " << d;
  }
  for (std::size_t i = 1; i < util.size(); ++i) {
    EXPECT_GE(util[i] + 1e-9, util[i - 1]) << "not monotone at " << i;
  }
  // Plateau: once drain <= interval the drain is free; further bandwidth
  // buys nothing.
  EXPECT_NEAR(util[util.size() - 1], util[util.size() - 2], 1e-3);
  // Uplift over direct-to-PFS everywhere the drain is not the bottleneck.
  EXPECT_GT(util.back(), direct);
  // Bottleneck regime: drain 4x the interval throttles below direct, and
  // the simulator reports the stalls that explain it.
  failure::CheckpointSimParams slow = base;
  slow.checkpoint_seconds = 30.0;
  slow.drain_seconds = 4 * kHour;
  Rng r3(1);
  const auto rslow = failure::SimulateCheckpointing(slow, r3);
  EXPECT_GT(rslow.stall_seconds, 0.0);
  EXPECT_LT(rslow.utilization, direct);
}

// -- Acceptance (a): absorb >= 5x direct-to-PFS -----------------------------

// Issues the N-1 strided checkpoint pattern: `ranks` writers, `chunk`
// bytes per record, records interleaved rank-major, one scheduler actor
// per writer (admission in (time, rank) order keeps arrivals FIFO).
// Returns the time the last record lands.
template <typename WriteFn>
double StridedCheckpointTime(std::uint32_t ranks, std::uint64_t chunk,
                             std::uint64_t per_rank, WriteFn&& write) {
  sim::VirtualScheduler sched(ranks);
  return sched.run([&](std::size_t r) {
    for (std::uint64_t k = 0; k < per_rank / chunk; ++k) {
      const std::uint64_t off = (k * ranks + r) * chunk;
      sched.atomically(r, [&](double now) { return write(off, chunk, now); });
    }
  });
}

TEST(BurstBufferPfs, AbsorbAtLeastFiveTimesDirectPfsBandwidth) {
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint64_t kChunk = 47 * KiB;  // unaligned, LANL-app-like
  constexpr std::uint64_t kPerRank = 8 * MiB;
  const std::uint64_t total = kRanks * kPerRank / kChunk * kChunk;

  // Direct: every rank writes its strided records straight at the PFS.
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster direct_cluster(pfs::PfsConfig{}, sched);
  auto direct_target = bb::MakePfsDrainTarget(direct_cluster);
  const double direct_time = StridedCheckpointTime(
      kRanks, kChunk, kPerRank,
      [&](std::uint64_t off, std::uint64_t len, double now) {
        return direct_target->drain(1, off, len, now);
      });

  // Staged: the same records absorb into the burst buffer, which drains
  // to an identical PFS in large sequential units in the background.
  sim::VirtualScheduler sched2(1);
  pfs::PfsCluster bb_cluster(pfs::PfsConfig{}, sched2);
  auto bb_target = bb::MakePfsDrainTarget(bb_cluster);
  BbParams p = FastDevice(512 * MiB);
  BurstBuffer buf(p, *bb_target);
  const double absorb_time = StridedCheckpointTime(
      kRanks, kChunk, kPerRank,
      [&](std::uint64_t off, std::uint64_t len, double now) {
        return buf.write(1, off, len, now);
      });

  const double direct_bw = static_cast<double>(total) / direct_time;
  const double absorb_bw = static_cast<double>(total) / absorb_time;
  EXPECT_GE(absorb_bw, 5.0 * direct_bw)
      << "absorb " << absorb_bw / 1e6 << " MB/s vs direct " << direct_bw / 1e6
      << " MB/s";

  // And the drain itself beats the strided direct write: large sequential
  // units are the PFS-friendly pattern.
  const double durable = buf.flush(absorb_time);
  EXPECT_LT(durable, direct_time);
  // The staging log is sequential on flash: no GC amplification.
  EXPECT_LT(buf.ssd().stats().write_amplification(), 1.05);
}

}  // namespace
}  // namespace pdsi
