// Characterization of pfs::PfsClient's request paths. One scripted
// sequence (every namespace op, then a write, read, fsync and close) runs
// on a synchronous client at one and at four MDS shards and on a
// pipelined client (window 8, batch 4) at one shard. Each step's status
// and the client's clock after it are pinned exactly, with the
// stale-bitmap bounce count and the split count, so a change to how the
// client routes, charges or queues a request shows here as the first
// step that moved. Labelled `rpc` in ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/result.h"
#include "pdsi/common/units.h"
#include "pdsi/giga/giga.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::pfs {
namespace {

struct Step {
  std::string op;
  Errc status;
  double now;  ///< the client's clock once the call returned
};

std::ostream& operator<<(std::ostream& os, const Step& s) {
  return os << "{\"" << s.op << "\", Errc::" << ErrcName(s.status) << ", "
            << std::setprecision(17) << s.now << "}";
}

struct ScriptRun {
  std::vector<Step> steps;
  std::uint64_t bounces = 0;  ///< pfs.mds_stale_retries
  std::uint64_t splits = 0;
};

/// Split threshold of the four-shard run: the fourth file create splits
/// partition 0, and the 1030-entry directory splits it again and again.
constexpr std::uint32_t kThreshold = 4;
constexpr int kBigDir = 1030;  ///< past readdir's first 1024-entry batch

ScriptRun RunScript(std::uint32_t shards, std::uint32_t window, std::uint32_t batch) {
  obs::Registry registry;
  obs::Context ctx{nullptr, &registry};
  PfsConfig cfg = PfsConfig::PanFsLike(4);
  cfg.num_mds_shards = shards;
  cfg.mds_split_threshold = kThreshold;
  cfg.rpc_window = window;
  cfg.rpc_batch = batch;
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(cfg, sched, nullptr, &ctx);
  PfsClient a(cluster, 0);
  PfsClient b(cluster, 0);  // joins later, with an empty (stale) bitmap

  ScriptRun run;
  const auto note = [&](const std::string& op, Errc status, const PfsClient& c) {
    run.steps.push_back({op, status, c.now()});
  };

  note("mkdir /d", a.mkdir("/d").error(), a);
  note("mkdir /e", a.mkdir("/e").error(), a);
  note("mkdir /big", a.mkdir("/big").error(), a);
  for (int i = 0; i < 4; ++i) {
    // At four shards the fourth file create splits partition 0.
    const std::string p = "/d/f" + std::to_string(i);
    note("create " + p, a.create(p).error(), a);
  }
  if (shards > 1) {
    EXPECT_EQ(cluster.smds().splits(), 1u);
  }
  note("create /d/f0 again", a.create("/d/f0").error(), a);

  auto fh = a.open("/d/f1");
  note("open /d/f1", fh.error(), a);
  auto st = a.stat("/d/f2");
  note("stat /d/f2", st.error(), a);
  EXPECT_EQ(st->size, 0u);
  EXPECT_FALSE(st->is_dir);
  auto lay = a.layout("/d/f3");
  note("layout /d/f3", lay.error(), a);
  EXPECT_EQ(lay->num_servers, 4u);
  note("layout /d", a.layout("/d").error(), a);

  // /d/f0 hashes into partition 1, which the first split made: a client
  // that never saw the split addresses partition 0's shard and bounces.
  EXPECT_EQ(giga::HashName("/d/f0") & 1u, 1u);
  auto group = b.open_group("/d/f0", 4);
  note("open_group /d/f0 (second client)", group.error(), b);

  for (int i = 0; i < kBigDir; ++i) {
    if (!a.create("/big/" + std::to_string(i)).ok()) {
      ADD_FAILURE() << "create /big/" << i;
    }
  }
  note("create /big/* (1030 files)", Errc::ok, a);
  auto names = a.readdir("/big");
  note("readdir /big", names.error(), a);
  EXPECT_EQ(names->size(), static_cast<std::size_t>(kBigDir));
  note("readdir /none", a.readdir("/none").error(), a);

  if (shards > 1) {
    // Under the bitmap of the moment the rename moves its file between
    // shards: the destination shard serves the install leg.
    EXPECT_NE(cluster.smds().home_shard("/d/f2"),
              cluster.smds().home_shard("/d/renamed"));
  }
  note("rename /d/f2 /d/renamed", a.rename("/d/f2", "/d/renamed").error(), a);
  note("unlink /d/renamed", a.unlink("/d/renamed").error(), a);
  note("unlink /e", a.unlink("/e").error(), a);
  note("unlink /d", a.unlink("/d").error(), a);

  const Bytes data = MakePattern(7, 100, 3 * MiB / 2);
  note("write", a.write(*fh, 100, data).error(), a);
  Bytes out(64 * KiB);
  auto n = a.read(*fh, MiB, out);
  note("read", n.error(), a);
  EXPECT_EQ(*n, out.size());
  EXPECT_EQ(FindPatternMismatch(7, MiB, out), kNoMismatch);
  note("fsync", a.fsync(*fh).error(), a);
  note("close", a.close(*fh).error(), a);

  run.bounces = registry.counter("pfs.mds_stale_retries").value();
  run.splits = cluster.smds().splits();
  return run;
}

void ExpectSteps(const ScriptRun& run, const std::vector<Step>& want) {
  ASSERT_EQ(run.steps.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Step& got = run.steps[i];
    SCOPED_TRACE("step " + std::to_string(i) + ": " + want[i].op);
    EXPECT_EQ(got.op, want[i].op);
    EXPECT_EQ(got.status, want[i].status) << got;
    EXPECT_EQ(got.now, want[i].now) << got;
  }
}

// A synchronous client at one MDS shard: the lone-MDS reference.
TEST(ClientPaths, SyncOneShard) {
  const ScriptRun run = RunScript(1, 1, 1);
  ExpectSteps(run, {
      {"mkdir /d", Errc::ok, 0.00069999999999999988},
      {"mkdir /e", Errc::ok, 0.0013999999999999998},
      {"mkdir /big", Errc::ok, 0.0020999999999999999},
      {"create /d/f0", Errc::ok, 0.0027999999999999995},
      {"create /d/f1", Errc::ok, 0.0034999999999999992},
      {"create /d/f2", Errc::ok, 0.0041999999999999989},
      {"create /d/f3", Errc::ok, 0.004899999999999999},
      {"create /d/f0 again", Errc::exists, 0.0052999999999999992},
      {"open /d/f1", Errc::ok, 0.0056999999999999993},
      {"stat /d/f2", Errc::ok, 0.0060999999999999995},
      {"layout /d/f3", Errc::ok, 0.0064999999999999997},
      {"layout /d", Errc::is_dir, 0.0068999999999999999},
      {"open_group /d/f0 (second client)", Errc::ok, 0.0070750000000000006},
      {"create /big/* (1030 files)", Errc::ok, 0.72807499999998282},
      {"readdir /big", Errc::ok, 0.72877499999998274},
      {"readdir /none", Errc::not_found, 0.7291749999999827},
      {"rename /d/f2 /d/renamed", Errc::ok, 0.72957499999998265},
      {"unlink /d/renamed", Errc::ok, 0.72997499999998261},
      {"unlink /e", Errc::ok, 0.73037499999998257},
      {"unlink /d", Errc::not_empty, 0.73077499999998252},
      {"write", Errc::ok, 0.73999232333331588},
      {"read", Errc::ok, 0.7574535149120919},
      {"fsync", Errc::ok, 0.76869348250624381},
      {"close", Errc::ok, 0.76869348250624381},
  });
  EXPECT_EQ(run.bounces, 0u);
  EXPECT_EQ(run.splits, 0u);
}

// A synchronous client at four MDS shards: splits, stale-bitmap bounces (the
// second client's group open), readdir's gather, the cross-shard rename's
// destination leg and the directory unlink's every-shard probe.
TEST(ClientPaths, SyncFourShards) {
  const ScriptRun run = RunScript(4, 1, 1);
  ExpectSteps(run, {
      {"mkdir /d", Errc::ok, 0.00069999999999999988},
      {"mkdir /e", Errc::ok, 0.0013999999999999998},
      {"mkdir /big", Errc::ok, 0.0020999999999999999},
      {"create /d/f0", Errc::ok, 0.0027999999999999995},
      {"create /d/f1", Errc::ok, 0.0034999999999999992},
      {"create /d/f2", Errc::ok, 0.0041999999999999989},
      {"create /d/f3", Errc::ok, 0.0049119999999999988},
      {"create /d/f0 again", Errc::exists, 0.0057119999999999992},
      {"open /d/f1", Errc::ok, 0.0061119999999999994},
      {"stat /d/f2", Errc::ok, 0.0065119999999999996},
      {"layout /d/f3", Errc::ok, 0.0069119999999999997},
      {"layout /d", Errc::is_dir, 0.0073119999999999999},
      {"open_group /d/f0 (second client)", Errc::ok, 0.0076620000000000013},
      {"create /big/* (1030 files)", Errc::ok, 0.75299399999998606},
      {"readdir /big", Errc::ok, 0.75409399999998594},
      {"readdir /none", Errc::not_found, 0.75489399999998585},
      {"rename /d/f2 /d/renamed", Errc::ok, 0.75610999999998574},
      {"unlink /d/renamed", Errc::ok, 0.75650999999998569},
      {"unlink /e", Errc::ok, 0.75730999999998561},
      {"unlink /d", Errc::not_empty, 0.75810999999998552},
      {"write", Errc::ok, 0.76732732333331888},
      {"read", Errc::ok, 0.78478851491209489},
      {"fsync", Errc::ok, 0.7960284825062468},
      {"close", Errc::ok, 0.7960284825062468},
  });
  EXPECT_EQ(run.bounces, 45u);
  EXPECT_EQ(run.splits, 464u);
}

// A pipelined client (window 8, batch 4) at one shard: MDS charges ride the
// engine's queues, so the clock moves only at window stalls and drains.
TEST(ClientPaths, PipelinedOneShard) {
  const ScriptRun run = RunScript(1, 8, 4);
  ExpectSteps(run, {
      {"mkdir /d", Errc::ok, 0},
      {"mkdir /e", Errc::ok, 0},
      {"mkdir /big", Errc::ok, 0},
      {"create /d/f0", Errc::ok, 0},
      {"create /d/f1", Errc::ok, 0},
      {"create /d/f2", Errc::ok, 0},
      {"create /d/f3", Errc::ok, 0},
      {"create /d/f0 again", Errc::exists, 0},
      {"open /d/f1", Errc::ok, 0},
      {"stat /d/f2", Errc::ok, 0},
      {"layout /d/f3", Errc::ok, 0},
      {"layout /d", Errc::is_dir, 0.0015999999999999996},
      {"open_group /d/f0 (second client)", Errc::ok, 0.0015999999999999996},
      {"create /big/* (1030 files)", Errc::ok, 0.31000000000000144},
      {"readdir /big", Errc::ok, 0.31000000000000144},
      {"readdir /none", Errc::not_found, 0.31120000000000153},
      {"rename /d/f2 /d/renamed", Errc::ok, 0.31120000000000153},
      {"unlink /d/renamed", Errc::ok, 0.31430000000000174},
      {"unlink /e", Errc::ok, 0.31470000000000176},
      {"unlink /d", Errc::not_empty, 0.31510000000000177},
      {"write", Errc::ok, 0.31510000000000177},
      {"read", Errc::ok, 0.34177851491211103},
      {"fsync", Errc::ok, 0.35301848250626289},
      {"close", Errc::ok, 0.35301848250626289},
  });
  EXPECT_EQ(run.bounces, 0u);
  EXPECT_EQ(run.splits, 0u);
}

}  // namespace
}  // namespace pdsi::pfs
