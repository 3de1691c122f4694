// Tests for the POSIX-HEC-extension APIs on the simulated PFS (layout
// query, group open) and for OSS/MDS internals added for them.
#include <gtest/gtest.h>

#include <set>

#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::pfs {
namespace {

class ExtFixture : public ::testing::Test {
 protected:
  ExtFixture()
      : sched_(1), cluster_(PfsConfig::LustreLike(4), sched_), client_(cluster_, 0) {}

  sim::VirtualScheduler sched_;
  PfsCluster cluster_;
  PfsClient client_;
};

TEST_F(ExtFixture, LayoutQueryReturnsGeometry) {
  auto fh = client_.create("/f");
  ASSERT_TRUE(fh.ok());
  auto info = client_.layout("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->stripe_unit, cluster_.config().stripe_unit);
  EXPECT_EQ(info->lock_unit, cluster_.config().lock_unit);
  EXPECT_EQ(info->num_servers, 4u);
  ASSERT_EQ(info->first_stripes.size(), 4u);
  // Round-robin placement: the four stripes land on four distinct servers.
  std::set<std::uint32_t> distinct(info->first_stripes.begin(),
                                   info->first_stripes.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST_F(ExtFixture, LayoutErrorsMirrorStat) {
  EXPECT_EQ(client_.layout("/missing").error(), Errc::not_found);
  client_.mkdir("/d");
  EXPECT_EQ(client_.layout("/d").error(), Errc::is_dir);
}

TEST_F(ExtFixture, GroupOpenReturnsUsableHandle) {
  auto fh = client_.create("/f");
  client_.write(*fh, 0, MakePattern(1, 0, 100));
  client_.close(*fh);
  auto g = client_.open_group("/f", 64);
  ASSERT_TRUE(g.ok());
  Bytes buf(100);
  ASSERT_TRUE(client_.read(*g, 0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(1, 0, buf), kNoMismatch);
  EXPECT_EQ(client_.open_group("/missing", 8).error(), Errc::not_found);
}

TEST(GroupOpen, AmortisesMetadataTime) {
  // N ranks each opening a file: per-rank opens serialise N ops at the
  // MDS; group opens cost ~one op total.
  auto run = [](bool group) {
    constexpr std::uint32_t kRanks = 32;
    PfsConfig cfg = PfsConfig::LustreLike(2);
    sim::VirtualScheduler sched(kRanks);
    PfsCluster cluster(cfg, sched);
    sim::VirtualBarrier barrier(sched);
    double start = 0.0;
    const double finish = sched.run([&](std::size_t r) {
      PfsClient client(cluster, r);
      if (r == 0) {
        auto fh = client.create("/f");
        client.close(*fh);
      }
      const double t0 = barrier.arrive(r);
      if (r == 0) start = t0;
      auto fh = group ? client.open_group("/f", kRanks) : client.open("/f");
      client.close(*fh);
      barrier.arrive(r);
    });
    return finish - start;
  };
  const double individual = run(false);
  const double grouped = run(true);
  EXPECT_GT(individual / grouped, 5.0);
}

TEST(DirContention, FanoutSpreadsCreateStorm) {
  // Creates into one directory serialise on its lock; spreading the same
  // creates over many directories parallelises (given MDS headroom).
  auto run = [](int dirs) {
    constexpr std::uint32_t kRanks = 16;
    PfsConfig cfg = PfsConfig::PvfsLike(2);
    cfg.mds_op_s = 50e-6;  // MDS service is not the bottleneck; the dir lock is
    sim::VirtualScheduler sched(kRanks);
    PfsCluster cluster(cfg, sched);
    return sched.run([&](std::size_t actor) {
      const auto r = static_cast<std::uint32_t>(actor);
      PfsClient client(cluster, r);
      if (r == 0) {
        for (int d = 0; d < dirs; ++d) client.mkdir("/d" + std::to_string(d));
      }
      for (int i = 0; i < 32; ++i) {
        const int d = (r * 32 + i) % dirs;
        auto fh = client.create("/d" + std::to_string(d) + "/f" +
                                std::to_string(r) + "_" + std::to_string(i));
        if (fh.ok()) client.close(*fh);
      }
    });
  };
  // Note: dir-lock cost equals one MDS op per create, so with 1 directory
  // the whole storm serialises behind that lock.
  const double one = run(1);
  const double sixteen = run(16);
  EXPECT_GT(one / sixteen, 1.5);
}

TEST(OssReadahead, ClampsToObjectSize) {
  // Reading a tiny object must not charge a full flush-chunk disk read.
  sim::VirtualScheduler sched(1);
  PfsConfig cfg = PfsConfig::PvfsLike(1);
  PfsCluster cluster(cfg, sched);
  PfsClient client(cluster, 0);
  auto tiny = client.create("/tiny");
  client.write(*tiny, 0, MakePattern(0, 0, 64));
  client.fsync(*tiny);
  const double t0 = client.now();
  Bytes buf(64);
  client.read(*tiny, 0, buf);
  const double tiny_read = client.now() - t0;
  // A 4 MiB read at ~120 MB/s would be ~35 ms; a clamped read is ~ a seek.
  EXPECT_LT(tiny_read, 0.02);
}

}  // namespace
}  // namespace pdsi::pfs
