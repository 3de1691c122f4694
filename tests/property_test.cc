// Cross-module property tests: randomised fuzzing of the PLFS container
// against a linear oracle and of the burst buffer through the tiering
// engine against shadow files, parallel-file-system byte exactness under
// concurrency, and scheduler determinism under heavy contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "pdsi/bb/burst_buffer.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/pfs/sparse_buffer.h"
#include "pdsi/plfs/plfs.h"
#include "pdsi/storage/device_catalog.h"
#include "pdsi/tier/tier_backend.h"
#include "pdsi/tier/tier_engine.h"

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
// Burst-buffer fuzz through the tiering engine's PLFS adapter: random
// writes, reads and fsyncs over a few files on tier::MakeTierBackend,
// checked byte-for-byte against one shadow buffer per file. The files
// together outgrow the staging flash and fill the warm budget past its
// demotion mark, so on every seed the buffer drains, evicts clean data
// and stalls ingest, and the engine demotes files to the erasure-coded
// archive and serves reads from its shards; the test asserts that each
// of these happened.
class BbFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BbFuzz, BackendMatchesShadowModelUnderRandomOps) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(2), sched);
  tier::TierEngineParams tp;
  tp.bb.ssd = storage::FlashDevice("fusionio-iodrive-duo");
  // 128 KiB erase blocks keep these small devices inside the geometry the
  // buffer accepts: 2 MiB has four spare blocks, 4 MiB eight.
  tp.bb.ssd.pages_per_block = 32;
  tp.bb.ssd.capacity_bytes = (1u << rng.below(2)) * 2 * MiB;  // 2/4 MiB
  tp.bb.high_watermark = 0.50;
  tp.bb.low_watermark = 0.25;
  tp.bb.drain_unit = 64 * KiB << rng.below(5);  // 64 KiB .. 1 MiB
  const std::uint64_t cap = tp.bb.ssd.capacity_bytes;
  tp.warm_capacity_bytes = 2 * cap;
  tp.cold.data_shards = 4;
  tp.cold.parity_shards = 2;
  tp.cold.shard_unit = 64 * KiB;
  tp.cold.num_devices = 8;
  tier::TierEngine engine(tp, cluster);
  auto be = tier::MakeTierBackend(engine);

  // Six files of up to a third of the flash each: about twice the flash,
  // and past the warm tier's demotion mark once they fill.
  constexpr int kFiles = 6;
  std::vector<plfs::BackendHandle> h;
  std::vector<Bytes> model(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    auto c = be->create("/f" + std::to_string(f));
    ASSERT_TRUE(c.ok()) << "seed " << seed;
    h.push_back(*c);
  }

  auto check_read = [&](int f, std::uint64_t off, std::size_t len) {
    Bytes out(len, 0xAA);
    auto n = be->read(h[f], off, out);
    ASSERT_TRUE(n.ok()) << "seed " << seed << " file " << f;
    const Bytes& m = model[f];
    const std::size_t want = off >= m.size()
        ? 0
        : static_cast<std::size_t>(std::min<std::uint64_t>(len, m.size() - off));
    ASSERT_EQ(*n, want) << "seed " << seed << " file " << f << " off " << off;
    const auto first = std::mismatch(out.begin(), out.begin() + want,
                                     m.begin() + static_cast<std::ptrdiff_t>(off));
    ASSERT_TRUE(first.first == out.begin() + want)
        << "seed " << seed << " file " << f << " at "
        << off + static_cast<std::uint64_t>(first.first - out.begin());
  };

  const int ops = 300;
  for (int i = 0; i < ops; ++i) {
    const int f = static_cast<int>(rng.below(kFiles));
    const double dice = rng.uniform();
    if (dice < 0.55) {
      const std::uint64_t off = rng.below(cap / 3);
      const std::size_t len = 1 + rng.below(cap / 32);
      const Bytes data = MakePattern(static_cast<std::uint32_t>(i), off, len);
      ASSERT_TRUE(be->write(h[f], off, data).ok()) << "seed " << seed << " op " << i;
      Bytes& m = model[f];
      if (off + len > m.size()) m.resize(off + len, 0);  // holes read as zeros
      std::copy(data.begin(), data.end(), m.begin() + static_cast<std::ptrdiff_t>(off));
      ASSERT_EQ(*be->size(h[f]), m.size()) << "seed " << seed << " op " << i;
    } else if (dice < 0.90) {
      // Mix interior reads with reads straddling or past the EOF.
      const std::uint64_t fsize = model[f].size();
      const std::uint64_t off = rng.below(fsize + fsize / 4 + 1);
      check_read(f, off, 1 + rng.below(cap / 64));
    } else {
      ASSERT_TRUE(be->fsync(h[f]).ok()) << "seed " << seed << " op " << i;
    }
    if (HasFatalFailure()) return;
  }

  // Drain everything, then every file must still match its shadow.
  for (int f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(be->fsync(h[f]).ok()) << "seed " << seed;
    check_read(f, 0, static_cast<std::size_t>(model[f].size()));
    check_read(f, model[f].size() / 3, static_cast<std::size_t>(model[f].size()));
  }

  const bb::BbStats& bs = engine.buffer().stats();
  const tier::TierStats& ts = engine.stats();
  EXPECT_GT(bs.bytes_drained, 0u) << "seed " << seed;
  EXPECT_GT(bs.bytes_evicted, 0u) << "seed " << seed;
  EXPECT_GT(bs.ingest_stalls, 0u) << "seed " << seed;
  EXPECT_GT(ts.demotions, 0u) << "seed " << seed;
  EXPECT_GT(ts.cold_hits, 0u) << "seed " << seed;
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
