// Workload-driver tests: pattern generation invariants and the headline
// integration property — PLFS beats direct N-1 strided checkpointing by a
// large factor on every file-system personality, while imposing little
// overhead where the baseline is already fine (N-N).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "pdsi/common/units.h"
#include "pdsi/workload/driver.h"
#include "pdsi/workload/patterns.h"

namespace pdsi::workload {
namespace {

TEST(Patterns, StridedTilesFileExactly) {
  CheckpointSpec spec{Pattern::n1_strided, 8, 1000, 16};
  std::set<std::uint64_t> offsets;
  for (std::uint32_t r = 0; r < spec.ranks; ++r) {
    for (const auto& op : WritesForRank(spec, r)) {
      EXPECT_EQ(op.length, spec.record_bytes);
      EXPECT_EQ(op.offset % spec.record_bytes, 0u);
      EXPECT_TRUE(offsets.insert(op.offset).second) << "overlapping offsets";
    }
  }
  EXPECT_EQ(offsets.size(), 8u * 16u);
  EXPECT_EQ(*offsets.rbegin(), spec.total_bytes() - spec.record_bytes);
}

TEST(Patterns, SegmentedRegionsAreContiguousAndDisjoint) {
  CheckpointSpec spec{Pattern::n1_segmented, 4, 1000, 8};
  for (std::uint32_t r = 0; r < spec.ranks; ++r) {
    auto ops = WritesForRank(spec, r);
    EXPECT_EQ(ops.front().offset, r * spec.bytes_per_rank());
    for (std::size_t k = 1; k < ops.size(); ++k) {
      EXPECT_EQ(ops[k].offset, ops[k - 1].offset + ops[k - 1].length);
    }
  }
}

TEST(Patterns, NnIsPrivateAndSequential) {
  CheckpointSpec spec{Pattern::nn, 4, 1000, 8};
  EXPECT_EQ(TargetPath(spec, 2), "/ckpt.2");
  auto ops = WritesForRank(spec, 3);
  EXPECT_EQ(ops.front().offset, 0u);
  EXPECT_EQ(ops.back().offset, 7000u);
}

TEST(Patterns, PaperAppsPopulated) {
  auto apps = PaperApps(16);
  EXPECT_GE(apps.size(), 5u);
  for (const auto& a : apps) {
    EXPECT_EQ(a.spec.ranks, 16u);
    EXPECT_GT(a.paper_speedup, 1.0);
  }
}

// Test-name suffix: the personality name with punctuation replaced.
constexpr auto kPersonalityName = [](const auto& param_info) {
  std::string n = param_info.param.name;
  for (auto& c : n)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return n;
};

// A personality that prints as its name. gtest prints a PfsConfig byte by
// byte, starting with a heap address, and ctest builds the test name from
// that print, so the name would change from build to build.
struct Personality : pfs::PfsConfig {
  friend void PrintTo(const Personality& p, std::ostream* os) {
    *os << p.name;
  }
};

class PlfsSpeedup : public ::testing::TestWithParam<Personality> {};

TEST_P(PlfsSpeedup, PlfsBeatsDirectOnTinyStridedRecords) {
  // FLASH-like: small unaligned records are the worst case for direct N-1
  // (per-record seeks, RMW, lock ping-pong) and the best case for PLFS.
  CheckpointSpec spec{Pattern::n1_strided, 16, 4 * KiB + 77, 32};
  const auto direct = RunDirectCheckpoint(GetParam(), spec);
  const auto plfs = RunPlfsCheckpoint(GetParam(), spec);
  EXPECT_EQ(direct.bytes, plfs.bytes);
  EXPECT_GT(direct.seconds / plfs.seconds, 6.0)
      << GetParam().name << " direct=" << direct.seconds
      << "s plfs=" << plfs.seconds << "s";
}

TEST_P(PlfsSpeedup, PlfsBeatsDirectOnMediumStridedRecords) {
  // 47 KiB records (LANL production code shape): gains are smaller than
  // the tiny-record case but still well above break-even at this small
  // test scale (the Fig. 8 bench runs the full-size configuration).
  CheckpointSpec spec{Pattern::n1_strided, 16, 47 * KiB + 301, 16};
  const auto direct = RunDirectCheckpoint(GetParam(), spec);
  const auto plfs = RunPlfsCheckpoint(GetParam(), spec);
  EXPECT_GT(direct.seconds / plfs.seconds, 2.0)
      << GetParam().name << " direct=" << direct.seconds
      << "s plfs=" << plfs.seconds << "s";
}

INSTANTIATE_TEST_SUITE_P(
    Personalities, PlfsSpeedup,
    ::testing::Values(Personality{pfs::PfsConfig::PanFsLike(4)},
                      Personality{pfs::PfsConfig::LustreLike(4)},
                      Personality{pfs::PfsConfig::GpfsLike(4)}),
    kPersonalityName);

class PlfsNnOverhead : public ::testing::TestWithParam<Personality> {};

TEST_P(PlfsNnOverhead, PlfsOverheadSmallForNN) {
  // N-N is already friendly; PLFS should not make it much slower.
  CheckpointSpec spec{Pattern::nn, 8, 256 * KiB, 16};
  const auto direct = RunDirectCheckpoint(GetParam(), spec);
  const auto plfs = RunPlfsCheckpoint(GetParam(), spec);
  EXPECT_LT(plfs.seconds / direct.seconds, 1.6)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Personalities, PlfsNnOverhead,
    ::testing::Values(Personality{pfs::PfsConfig::PanFsLike(4)},
                      Personality{pfs::PfsConfig::LustreLike(4)},
                      Personality{pfs::PfsConfig::GpfsLike(4)}),
    kPersonalityName);

TEST(PlfsRoundTrip, RestartReadsComplete) {
  CheckpointSpec spec{Pattern::n1_strided, 8, 16 * KiB + 11, 8};
  auto cfg = pfs::PfsConfig::PanFsLike(4);
  const auto rt = RunPlfsRoundTrip(cfg, spec);
  EXPECT_GT(rt.write.bandwidth(), 0.0);
  EXPECT_GT(rt.read.bandwidth(), 0.0);
  EXPECT_EQ(rt.write.bytes, spec.total_bytes());
}

TEST(TraceCapture, EventsCoverAllWrites) {
  CheckpointSpec spec{Pattern::n1_strided, 4, 10 * KiB, 8};
  WriteTrace trace;
  RunDirectCheckpoint(pfs::PfsConfig::LustreLike(2), spec, &trace);
  EXPECT_EQ(trace.size(), 4u * 8u);
  for (const auto& e : trace) {
    EXPECT_LT(e.start, e.end);
    EXPECT_EQ(e.length, spec.record_bytes);
  }
  // WriteTrace order: by start time, then rank, then offset.
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return std::tie(a.start, a.rank, a.offset) <
                                      std::tie(b.start, b.rank, b.offset);
                             }));
}

// PLFS creates its droppings through the MDS; until a directory splits,
// shard 0 mints every file id, and round-robin placement starts each file
// at id mod num_oss. Shard ids that all fall in one residue class would
// put every dropping on one OSS and make the sharded run several times
// slower than the single MDS.
TEST(PlfsShardedMds, FlashCheckpointOnEightShardsIsNoSlower) {
  CheckpointSpec spec;
  for (const AppModel& app : PaperApps(64)) {
    if (app.name == "FLASH-io") spec = app.spec;
  }
  ASSERT_EQ(spec.ranks, 64u);
  auto cfg = pfs::PfsConfig::PanFsLike(8);
  const auto one = RunPlfsCheckpoint(cfg, spec);
  cfg.num_mds_shards = 8;
  const auto eight = RunPlfsCheckpoint(cfg, spec);
  EXPECT_EQ(eight.bytes, one.bytes);
  EXPECT_LE(eight.seconds, one.seconds)
      << "1 shard " << one.seconds << " s, 8 shards " << eight.seconds << " s";
}

void ExpectSameTrace(const WriteTrace& a, const WriteTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rank, b[i].rank) << "event " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "event " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "event " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << "event " << i;
    EXPECT_EQ(a[i].length, b[i].length) << "event " << i;
  }
}

TEST(Determinism, DriverRunsAreReproducible) {
  CheckpointSpec spec{Pattern::n1_strided, 8, 20 * KiB + 3, 8};
  auto cfg = pfs::PfsConfig::GpfsLike(4);
  WriteTrace ta, tb, tc, td;
  const auto a = RunPlfsCheckpoint(cfg, spec, {}, &ta);
  const auto b = RunPlfsCheckpoint(cfg, spec, {}, &tb);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  ExpectSameTrace(ta, tb);
  const auto c = RunDirectCheckpoint(cfg, spec, &tc);
  const auto d = RunDirectCheckpoint(cfg, spec, &td);
  EXPECT_DOUBLE_EQ(c.seconds, d.seconds);
  ExpectSameTrace(tc, td);
}

}  // namespace
}  // namespace pdsi::workload
