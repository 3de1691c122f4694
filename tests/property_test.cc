// Cross-module property tests: randomised fuzzing of the PLFS container
// against a linear oracle, parallel-file-system byte exactness under
// concurrency, and scheduler determinism under heavy contention.
#include <gtest/gtest.h>

#include <thread>

#include <map>

#include "pdsi/bb/bb_backend.h"
#include "pdsi/bb/burst_buffer.h"
#include "pdsi/bb/drain_target.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/pfs/sparse_buffer.h"
#include "pdsi/plfs/plfs.h"
#include "pdsi/storage/device_catalog.h"

namespace pdsi {
namespace {

// ---------------------------------------------------------------------------
// PLFS fuzz: interleaved writers with arbitrary overlapping writes, syncs
// and reopenings, verified byte-for-byte against a SparseBuffer oracle
// that applies operations in the same order.
class PlfsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlfsFuzz, MatchesOracleUnderRandomWrites) {
  Rng rng(GetParam());
  const std::uint32_t writers = 2 + static_cast<std::uint32_t>(rng.below(4));

  plfs::Options opts;
  opts.index_compression = rng.chance(0.5);
  opts.index_buffering = rng.chance(0.8);
  opts.num_hostdirs = 1 + static_cast<std::uint32_t>(rng.below(8));
  if (rng.chance(0.3)) opts.write_buffer_bytes = 16 * KiB;
  plfs::Plfs fs(plfs::MakeMemBackend(), opts);

  pfs::SparseBuffer oracle;
  std::vector<std::unique_ptr<plfs::Writer>> open_writers(writers);
  for (std::uint32_t w = 0; w < writers; ++w) {
    auto r = fs.open_write("/fuzz", w);
    ASSERT_TRUE(r.ok());
    open_writers[w] = std::move(*r);
  }

  const int ops = 400;
  for (int i = 0; i < ops; ++i) {
    const std::uint32_t w = static_cast<std::uint32_t>(rng.below(writers));
    const double dice = rng.uniform();
    if (dice < 0.85) {
      const std::uint64_t off = rng.below(64 * KiB);
      const std::size_t len = 1 + rng.below(3000);
      Bytes data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
      ASSERT_TRUE(open_writers[w]->write(off, data).ok());
      oracle.write(off, data);
    } else if (dice < 0.95) {
      ASSERT_TRUE(open_writers[w]->sync().ok());
    } else {
      // Close and reopen this writer mid-stream.
      ASSERT_TRUE(open_writers[w]->close().ok());
      auto r = fs.open_write("/fuzz", w + writers * (1 + i));  // fresh rank id
      ASSERT_TRUE(r.ok());
      open_writers[w] = std::move(*r);
    }
  }
  for (auto& w : open_writers) ASSERT_TRUE(w->close().ok());

  auto reader = fs.open_read("/fuzz");
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->size(), oracle.size());
  Bytes got(oracle.size());
  Bytes expect(oracle.size());
  ASSERT_TRUE((*reader)->read(0, got).ok());
  oracle.read(0, expect);
  EXPECT_EQ(HashBytes(got), HashBytes(expect)) << "seed " << GetParam();
  // Random-offset spot reads too (different code path than full scan).
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t off = rng.below(oracle.size());
    const std::size_t len = 1 + rng.below(5000);
    Bytes a(len), b(len);
    auto n = (*reader)->read(off, a);
    ASSERT_TRUE(n.ok());
    oracle.read(off, std::span(b).first(*n));
    EXPECT_EQ(HashBytes(std::span(a).first(*n)), HashBytes(std::span(b).first(*n)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlfsFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

// ---------------------------------------------------------------------------
// PFS byte exactness with many concurrent writers on one shared file.
TEST(PfsConcurrency, StridedWritersReconstructExactly) {
  constexpr int kRanks = 12;
  constexpr std::uint64_t kRecord = 3163;  // odd size
  constexpr int kSteps = 10;
  pfs::PfsConfig cfg = pfs::PfsConfig::GpfsLike(4);
  sim::VirtualScheduler sched(kRanks);
  pfs::PfsCluster cluster(cfg, sched);

  sim::VirtualBarrier barrier(sched);
  sched.run([&](std::size_t actor) {
    const int r = static_cast<int>(actor);
    pfs::PfsClient client(cluster, r);
    pfs::FileHandle fh;
    if (r == 0) {
      fh = *client.create("/shared");
      barrier.arrive(r);
    } else {
      barrier.arrive(r);
      fh = *client.open("/shared");
    }
    for (int k = 0; k < kSteps; ++k) {
      const std::uint64_t off = (static_cast<std::uint64_t>(k) * kRanks + r) * kRecord;
      client.write(fh, off, MakePattern(r, off, kRecord));
    }
    client.close(fh);
    barrier.arrive(r);
    // Every rank verifies another rank's region through a fresh handle.
    const std::uint32_t other = (r + 5) % kRanks;
    Bytes buf(kRecord);
    const std::uint64_t off = (static_cast<std::uint64_t>(3) * kRanks + other) * kRecord;
    auto fh2 = client.open("/shared");
    auto n = client.read(*fh2, off, buf);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(*n, kRecord);
    EXPECT_EQ(FindPatternMismatch(other, off, buf), kNoMismatch);
    client.close(*fh2);
  });
}

// ---------------------------------------------------------------------------
// Burst-buffer backend fuzz: random write/read/fsync interleavings through
// MakeBbBackend(MemBackend) — drains, evictions and backpressure stalls
// firing at arbitrary points — checked byte-for-byte against a trivial
// shadow model (offset -> byte). Small capacity relative to the write
// volume so the watermark/evict machinery actually engages.
class BbFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BbFuzz, BackendMatchesShadowModelUnderRandomOps) {
  Rng rng(GetParam());
  bb::BbParams bp;
  bp.ssd = storage::FlashDevice("fusionio-iodrive-duo");
  bp.ssd.capacity_bytes = (1u << rng.below(3)) * 4 * MiB;  // 4/8/16 MiB
  bp.high_watermark = 0.50;
  bp.low_watermark = 0.25;
  bp.drain_unit = 64 * KiB << rng.below(5);  // 64 KiB .. 1 MiB
  bb::FixedRateDrainTarget pfs(1e7 * (1 + rng.below(10)));  // 10-100 MB/s
  bb::BurstBuffer buf(bp, pfs);
  auto be = plfs::MakeBbBackend(buf, plfs::MakeMemBackend());

  auto h = be->create("/bbfuzz");
  ASSERT_TRUE(h.ok()) << "seed " << GetParam();
  std::map<std::uint64_t, std::uint8_t> model;
  std::uint64_t fsize = 0;

  auto expect_at = [&](std::uint64_t off) -> std::uint8_t {
    auto it = model.find(off);
    return it == model.end() ? 0 : it->second;  // holes read as zeros
  };
  auto check_read = [&](std::uint64_t off, std::size_t len) {
    Bytes out(len, 0xAA);
    auto n = be->read(*h, off, out);
    ASSERT_TRUE(n.ok()) << "seed " << GetParam();
    const std::size_t want = off >= fsize
        ? 0
        : static_cast<std::size_t>(std::min<std::uint64_t>(len, fsize - off));
    ASSERT_EQ(*n, want) << "seed " << GetParam() << " off " << off;
    for (std::size_t i = 0; i < want; ++i) {
      ASSERT_EQ(out[i], expect_at(off + i))
          << "seed " << GetParam() << " at " << off + i;
    }
  };

  const int ops = 300;
  for (int i = 0; i < ops; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.60) {
      const std::uint64_t off = rng.below(2 * MiB);
      const std::size_t len = 1 + rng.below(64 * KiB);
      Bytes data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
      ASSERT_TRUE(be->write(*h, off, data).ok()) << "seed " << GetParam();
      for (std::size_t k = 0; k < len; ++k) model[off + k] = data[k];
      fsize = std::max(fsize, off + len);
      ASSERT_EQ(*be->size(*h), fsize) << "seed " << GetParam();
    } else if (dice < 0.90) {
      if (fsize == 0) continue;
      // Mix interior reads with reads straddling or past the EOF.
      const std::uint64_t off = rng.below(fsize + fsize / 4 + 1);
      check_read(off, 1 + rng.below(48 * KiB));
    } else {
      ASSERT_TRUE(be->fsync(*h).ok()) << "seed " << GetParam();
    }
  }

  // Drain everything, then the durable image must still match the model.
  ASSERT_TRUE(be->fsync(*h).ok()) << "seed " << GetParam();
  check_read(0, static_cast<std::size_t>(fsize));
  check_read(fsize / 3, static_cast<std::size_t>(fsize));  // tail + past-EOF
}

INSTANTIATE_TEST_SUITE_P(Seeds, BbFuzz,
                         ::testing::Values(7, 21, 42, 63, 84, 105, 126, 147));

// ---------------------------------------------------------------------------
// Scheduler stress: 24 actors doing seeded random advances and barriers
// must produce identical traces across repeated runs.
TEST(SchedulerStress, HeavyContentionIsDeterministic) {
  auto run = [](unsigned jitter) {
    constexpr int kActors = 24;
    sim::VirtualScheduler sched(kActors);
    sim::SimResource shared;
    std::vector<double> finish(kActors);
    sched.run([&](std::size_t a) {
      std::this_thread::sleep_for(std::chrono::microseconds((a * jitter) % 300));
      Rng rng(1000 + a);
      for (int i = 0; i < 200; ++i) {
        sched.atomically(a, [&](double now) {
          return shared.reserve(now, rng.uniform(1e-5, 1e-3));
        });
      }
      finish[a] = sched.now(a);
    });
    return finish;
  };
  const auto a = run(0);
  const auto b = run(7);
  const auto c = run(31);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

}  // namespace
}  // namespace pdsi
