// Tests for the sharded metadata service (pdsi::pfs::ShardedMds) and the
// MDS namespace bug fixes that PR landed together: the unlink emptiness
// prefix scan (a sibling like "/a.x" sorts between "/a" and "/a/b" and
// must not make a populated directory deletable), the root unlink guard,
// POSIX same-path rename, placement invariants and name collisions under
// GIGA+ splitting, stale-bitmap client convergence with bounces bounded by
// split history, single-shard equivalence with the legacy lone MDS,
// cross-shard readdir, and the count-only partition index checked against
// a brute-force placement from the names (through unlinks and a rename
// that splits). Labelled `mds` in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/giga/giga.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/pfs/mds.h"
#include "pdsi/pfs/sharded_mds.h"

namespace pdsi::pfs {
namespace {

PfsConfig ShardedConfig(std::uint32_t shards, std::uint32_t threshold) {
  PfsConfig cfg = PfsConfig::PanFsLike(4);
  cfg.num_mds_shards = shards;
  cfg.mds_split_threshold = threshold;
  return cfg;
}

using ShardFiles = std::vector<std::set<std::string>>;

/// The files each shard holds (directories excluded).
ShardFiles FilesByShard(const ShardedMds& smds) {
  ShardFiles out(smds.num_shards());
  for (std::uint32_t s = 0; s < smds.num_shards(); ++s) {
    smds.shard(s).for_each_entry([&](const std::string& path, const Inode& n) {
      if (!n.is_dir) out[s].insert(path);
    });
  }
  return out;
}

/// Brute force from the names alone: the shard whose partition covers
/// each name's hash under the current bitmap.
ShardFiles ExpectedByShard(const ShardedMds& smds,
                           const std::set<std::string>& names) {
  ShardFiles out(smds.num_shards());
  for (const std::string& name : names) {
    const std::string p = NormalizePath(name);
    out[smds.shard_of(smds.bitmap().partition_for(giga::HashName(p)))]
        .insert(p);
  }
  return out;
}

std::uint64_t LivePartitions(const giga::Bitmap& bitmap) {
  std::uint64_t n = 0;
  for (std::uint32_t p = 0; p <= bitmap.highest(); ++p) n += bitmap.test(p);
  return n;
}

// -- Mds namespace bug regressions ------------------------------------

TEST(MdsUnlink, DotSiblingCannotFakeEmptiness) {
  // '.' (0x2E) sorts before '/' (0x2F), so in the ordered namespace the
  // immediate successor of "/a" is "/a.x", not "/a/b". The old
  // std::next(it) probe concluded "/a" was empty and erased it,
  // orphaning "/a/b". The prefix scan must see through the sibling.
  PfsConfig cfg;
  Mds mds(cfg);
  ASSERT_TRUE(mds.mkdir("/a").ok());
  ASSERT_TRUE(mds.create("/a.x", 0.0).ok());
  ASSERT_TRUE(mds.create("/a/b", 0.0).ok());
  EXPECT_EQ(mds.unlink("/a").error(), Errc::not_empty);
  EXPECT_TRUE(mds.lookup("/a").ok());
  EXPECT_TRUE(mds.lookup("/a/b").ok());
  // Once the child is gone the directory (still shadowed by "/a.x") is
  // genuinely empty and unlinkable.
  ASSERT_TRUE(mds.unlink("/a/b").ok());
  EXPECT_TRUE(mds.unlink("/a").ok());
  EXPECT_TRUE(mds.lookup("/a.x").ok());
}

TEST(MdsUnlink, RootIsNotUnlinkable) {
  PfsConfig cfg;
  Mds mds(cfg);
  EXPECT_EQ(mds.unlink("/").error(), Errc::not_supported);
  EXPECT_TRUE(mds.lookup("/").ok());
  ASSERT_TRUE(mds.create("/f", 0.0).ok());
  EXPECT_EQ(mds.unlink("/").error(), Errc::not_supported);
  EXPECT_TRUE(mds.lookup("/").ok());
  EXPECT_TRUE(mds.create("/g", 0.0).ok());  // root still a live directory
}

TEST(MdsRename, SamePathIsPosixNoop) {
  PfsConfig cfg;
  Mds mds(cfg);
  ASSERT_TRUE(mds.create("/f", 1.0).ok());
  EXPECT_TRUE(mds.rename("/f", "/f", 2.0).ok());
  EXPECT_TRUE(mds.lookup("/f").ok());
  // Spelled differently but the same path after normalization.
  EXPECT_TRUE(mds.rename("/f", "//f/", 3.0).ok());
  EXPECT_TRUE(mds.lookup("/f").ok());
}

TEST(MdsRename, StampsDestinationMtime) {
  PfsConfig cfg;
  Mds mds(cfg);
  ASSERT_TRUE(mds.create("/old", 1.0).ok());
  ASSERT_TRUE(mds.rename("/old", "/new", 7.5).ok());
  auto r = mds.lookup("/new");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->mtime, 7.5);
  EXPECT_EQ(mds.lookup("/old").error(), Errc::not_found);
}

TEST(MdsHasChildren, PrefixScanSemantics) {
  PfsConfig cfg;
  Mds mds(cfg);
  ASSERT_TRUE(mds.mkdir("/d").ok());
  EXPECT_FALSE(mds.has_children("/d"));
  ASSERT_TRUE(mds.create("/d.x", 0.0).ok());
  EXPECT_FALSE(mds.has_children("/d"));  // sibling, not child
  ASSERT_TRUE(mds.create("/d/f", 0.0).ok());
  EXPECT_TRUE(mds.has_children("/d"));
  EXPECT_TRUE(mds.has_children("/"));
}

// -- ShardedMds state semantics ---------------------------------------

TEST(ShardedMds, PlacementInvariantHoldsThroughSplits) {
  PfsConfig cfg = ShardedConfig(8, 16);
  ShardedMds smds(cfg);
  ASSERT_TRUE(smds.mkdir("/d").ok());
  constexpr int kFiles = 1500;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(smds.create("/d/f" + std::to_string(i), 0.0).ok()) << i;
  }
  EXPECT_GT(smds.splits(), 10u);
  EXPECT_GT(smds.bitmap().highest(), 8u);
  EXPECT_EQ(smds.total_files(), static_cast<std::uint64_t>(kFiles));
  EXPECT_TRUE(smds.check_placement_invariant());
  // Every file resolves after arbitrary migration history, and a name
  // that was never created does not.
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_TRUE(smds.lookup("/d/f" + std::to_string(i)).ok()) << i;
  }
  EXPECT_EQ(smds.lookup("/d/missing").error(), Errc::not_found);
  // Re-creating a name collides on its home shard, wherever the splits
  // moved it, and leaves the partition index untouched.
  for (int i = 0; i < kFiles; i += 97) {
    EXPECT_EQ(smds.create("/d/f" + std::to_string(i), 1.0).error(),
              Errc::exists)
        << i;
  }
  EXPECT_EQ(smds.total_files(), static_cast<std::uint64_t>(kFiles));
  EXPECT_TRUE(smds.check_placement_invariant());
}

// The check fails when an indexed file is missing from its home shard or
// present on another one, and holds again once the file is back home.
TEST(ShardedMds, PlacementInvariantCatchesMisplacedFiles) {
  PfsConfig cfg = ShardedConfig(4, 16);
  ShardedMds smds(cfg);
  ASSERT_TRUE(smds.mkdir("/d").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(smds.create("/d/f" + std::to_string(i), 0.0).ok()) << i;
  }
  ASSERT_GT(smds.splits(), 0u);
  ASSERT_TRUE(smds.check_placement_invariant());
  const std::string victim = "/d/f7";
  const std::uint32_t home = smds.home_shard(victim);
  const std::uint32_t other = (home + 1) % smds.num_shards();
  Inode node = *smds.lookup(victim);
  // A copy on another shard besides the home one.
  smds.shard(other).install(victim, node);
  EXPECT_FALSE(smds.check_placement_invariant());
  // Only on the other shard.
  ASSERT_TRUE(smds.shard(home).take(victim, &node));
  EXPECT_FALSE(smds.check_placement_invariant());
  // On no shard at all.
  ASSERT_TRUE(smds.shard(other).take(victim, &node));
  EXPECT_FALSE(smds.check_placement_invariant());
  smds.shard(home).install(victim, node);
  EXPECT_TRUE(smds.check_placement_invariant());
}

TEST(ShardedMds, EveryShardHoldsExactlyTheFilesItsPartitionsCover) {
  const PfsConfig cfg = ShardedConfig(8, 16);
  ShardedMds smds(cfg);
  ASSERT_TRUE(smds.mkdir("/d").ok());
  std::set<std::string> names;
  for (int i = 0; i < 1200; ++i) {
    const std::string name = "/d/f" + std::to_string(i);
    ASSERT_TRUE(smds.create(name, 0.0).ok()) << i;
    names.insert(name);
  }
  ASSERT_GT(smds.splits(), 20u);
  EXPECT_EQ(FilesByShard(smds), ExpectedByShard(smds, names));
  EXPECT_EQ(smds.splits() + 1, LivePartitions(smds.bitmap()));
  EXPECT_EQ(smds.total_files(), names.size());
  EXPECT_TRUE(smds.check_placement_invariant());
}

TEST(ShardedMds, CountsFollowUnlinkAndARenameThatSplits) {
  constexpr std::uint32_t kThreshold = 16;
  const PfsConfig cfg = ShardedConfig(4, kThreshold);
  ShardedMds smds(cfg);
  ASSERT_TRUE(smds.mkdir("/d").ok());
  std::set<std::string> names;
  for (int i = 0; i < 300; ++i) {
    const std::string name = "/d/f" + std::to_string(i);
    ASSERT_TRUE(smds.create(name, 0.0).ok()) << i;
    names.insert(name);
  }
  ASSERT_GT(smds.splits(), 0u);
  for (int i = 0; i < 300; i += 7) {
    const std::string name = "/d/f" + std::to_string(i);
    ASSERT_TRUE(smds.unlink(name).ok()) << i;
    names.erase(name);
  }
  EXPECT_EQ(smds.total_files(), names.size());
  EXPECT_EQ(FilesByShard(smds), ExpectedByShard(smds, names));
  EXPECT_TRUE(smds.check_placement_invariant());

  // Fill one partition to one file short of its threshold, then rename a
  // file from another partition into it: the rename fills it and splits.
  const auto part_of = [&](const std::string& p) {
    return smds.bitmap().partition_for(giga::HashName(p));
  };
  const auto files_in = [&](std::uint32_t part) {
    return std::count_if(names.begin(), names.end(), [&](const std::string& n) {
      return part_of(n) == part;
    });
  };
  int fresh = 0;
  const auto fresh_name_in = [&](std::uint32_t part) {
    std::string name;
    do {
      name = "/d/g" + std::to_string(fresh++);
    } while (part_of(name) != part);
    return name;
  };
  const std::uint32_t target = part_of(*names.begin());
  ASSERT_LT(files_in(target), kThreshold);
  const std::uint64_t splits = smds.splits();
  while (files_in(target) < kThreshold - 1) {
    const std::string name = fresh_name_in(target);
    ASSERT_TRUE(smds.create(name, 0.0).ok());
    names.insert(name);
    ASSERT_EQ(smds.splits(), splits) << "split below the threshold";
  }
  const auto from = std::find_if(names.begin(), names.end(),
                                 [&](const std::string& n) {
                                   return part_of(n) != target;
                                 });
  ASSERT_NE(from, names.end());
  const std::string from_name = *from;
  const std::string to = fresh_name_in(target);
  ASSERT_TRUE(smds.rename(from_name, to, 1.0).ok());
  names.erase(from_name);
  names.insert(to);
  EXPECT_EQ(smds.splits(), splits + 1);
  EXPECT_EQ(smds.total_files(), names.size());
  EXPECT_EQ(FilesByShard(smds), ExpectedByShard(smds, names));
  EXPECT_TRUE(smds.check_placement_invariant());
}

TEST(ShardedMds, CreateNormalisesItsPathOnce) {
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    const PfsConfig cfg = ShardedConfig(shards, 16);
    ShardedMds smds(cfg);
    ASSERT_TRUE(smds.mkdir("/d").ok());
    ASSERT_TRUE(smds.create("//d///f", 0.0).ok());
    EXPECT_NE(smds.shard(smds.home_shard("/d/f")).find("/d/f"), nullptr);
    EXPECT_EQ(smds.create("/d/f", 1.0).error(), Errc::exists);
    EXPECT_EQ(smds.create("//d///f", 1.0).error(), Errc::exists);
    EXPECT_EQ(*smds.readdir("/d"), std::vector<std::string>{"f"});
    EXPECT_EQ(smds.total_files(), 1u);
    EXPECT_TRUE(smds.check_placement_invariant());
  }
}

TEST(ShardedMds, FileIdsStayGloballyUnique) {
  PfsConfig cfg = ShardedConfig(4, 32);
  ShardedMds smds(cfg);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 600; ++i) {
    auto r = smds.create("/f" + std::to_string(i), 0.0);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(ids.insert(r->file_id).second) << "duplicate id " << r->file_id;
  }
}

TEST(ShardedMds, DirectoryUnlinkSeesChildrenOnAllShards) {
  // Low threshold so the children split across partitions on several
  // shards; emptiness must consult them all.
  PfsConfig cfg = ShardedConfig(4, 8);
  ShardedMds smds(cfg);
  ASSERT_TRUE(smds.mkdir("/d").ok());
  constexpr int kKids = 64;
  for (int i = 0; i < kKids; ++i) {
    ASSERT_TRUE(smds.create("/d/f" + std::to_string(i), 0.0).ok());
  }
  ASSERT_GT(smds.splits(), 0u);
  std::set<std::uint32_t> homes;
  for (int i = 0; i < kKids; ++i) {
    homes.insert(smds.home_shard("/d/f" + std::to_string(i)));
  }
  ASSERT_GT(homes.size(), 1u);  // the probe genuinely spans shards
  EXPECT_EQ(smds.unlink("/d").error(), Errc::not_empty);
  for (int i = 0; i < kKids; ++i) {
    ASSERT_TRUE(smds.unlink("/d/f" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(smds.unlink("/d").ok());
  EXPECT_EQ(smds.lookup("/d").error(), Errc::not_found);
  EXPECT_EQ(smds.unlink("/").error(), Errc::not_supported);
}

TEST(ShardedMds, ReaddirMergesAcrossShards) {
  PfsConfig cfg = ShardedConfig(4, 24);
  ShardedMds smds(cfg);
  ASSERT_TRUE(smds.mkdir("/d").ok());
  ASSERT_TRUE(smds.mkdir("/d/sub").ok());  // replicated on every shard
  std::vector<std::string> expected = {"sub"};
  for (int i = 0; i < 300; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(smds.create("/d/" + name, 0.0).ok());
    expected.push_back(name);
  }
  std::sort(expected.begin(), expected.end());
  auto r = smds.readdir("/d");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, expected);  // sorted, complete, replicas deduped
  EXPECT_EQ(smds.readdir("/d/f0").error(), Errc::not_dir);
  EXPECT_EQ(smds.readdir("/missing").error(), Errc::not_found);
}

TEST(ShardedMds, CrossShardRenameMovesHome) {
  // Before any split there is only partition 0, so every path homes to
  // shard 0; grow the namespace first so distinct home shards exist,
  // then rename across them.
  PfsConfig cfg = ShardedConfig(4, 8);
  ShardedMds smds(cfg);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(smds.create("/seed" + std::to_string(i), 1.0).ok());
  }
  ASSERT_GT(smds.splits(), 0u);
  const std::string from = "/seed0";
  std::string to;
  for (int i = 0; i < 256 && to.empty(); ++i) {
    const std::string cand = "/moved" + std::to_string(i);
    if (smds.home_shard(cand) != smds.home_shard(from)) to = cand;
  }
  ASSERT_FALSE(to.empty());
  auto created = smds.lookup(from);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(smds.rename(from, to, 9.0).ok());
  EXPECT_EQ(smds.lookup(from).error(), Errc::not_found);
  auto moved = smds.lookup(to);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->file_id, created->file_id);
  EXPECT_EQ(moved->mtime, 9.0);
  EXPECT_TRUE(smds.check_placement_invariant());
}

// -- Single-shard equivalence with the legacy lone MDS ----------------

TEST(ShardedMds, SingleShardMatchesLegacyMdsOnRecordedOps) {
  // Replay one op sequence through a bare Mds (the legacy service) and a
  // one-shard ShardedMds; every status, inode id, size, mtime, and
  // listing must match exactly.
  PfsConfig cfg;
  Mds legacy(cfg);
  ShardedMds sharded(cfg);
  ASSERT_EQ(sharded.num_shards(), 1u);

  const std::vector<std::string> files = {"/a", "/a.x", "/d/f1", "/d/f2",
                                          "/d/sub/g"};
  auto drive = [&files](auto&& mkdir, auto&& create, auto&& unlink,
                        auto&& rename, auto&& extend) {
    std::vector<std::string> log;
    log.push_back(mkdir("/d"));
    log.push_back(mkdir("/d"));  // exists
    log.push_back(mkdir("/d/sub"));
    log.push_back(mkdir("/nope/sub"));  // not_found
    for (const auto& f : files) log.push_back(create(f));
    log.push_back(create("/a"));          // exists
    log.push_back(unlink("/d"));          // not_empty
    log.push_back(unlink("/"));           // not_supported
    log.push_back(rename("/a", "/a"));    // POSIX no-op
    log.push_back(rename("/a", "/b"));    // ok
    log.push_back(rename("/gone", "/x")); // not_found
    extend("/b", 4096, 3.25);
    log.push_back(unlink("/d/f1"));
    return log;
  };

  auto name = [](Errc e) { return std::string(ErrcName(e)); };
  const auto legacy_log = drive(
      [&](const std::string& p) { return name(legacy.mkdir(p).error()); },
      [&](const std::string& p) {
        auto r = legacy.create(p, 1.5);
        return r.ok() ? "id=" + std::to_string(r->file_id) : name(r.error());
      },
      [&](const std::string& p) { return name(legacy.unlink(p).error()); },
      [&](const std::string& f, const std::string& t) {
        return name(legacy.rename(f, t, 2.5).error());
      },
      [&](const std::string& p, std::uint64_t n, double m) {
        if (Inode* node = legacy.find(p)) node->extend(n, m);
      });
  const auto sharded_log = drive(
      [&](const std::string& p) { return name(sharded.mkdir(p).error()); },
      [&](const std::string& p) {
        auto r = sharded.create(p, 1.5);
        return r.ok() ? "id=" + std::to_string(r->file_id) : name(r.error());
      },
      [&](const std::string& p) { return name(sharded.unlink(p).error()); },
      [&](const std::string& f, const std::string& t) {
        return name(sharded.rename(f, t, 2.5).error());
      },
      [&](const std::string& p, std::uint64_t n, double m) {
        ShardedMds::InodeRef ref;
        if (Inode* node = sharded.resolve(p, &ref)) node->extend(n, m);
      });
  EXPECT_EQ(legacy_log, sharded_log);

  for (const std::string p : {"/", "/d", "/b", "/d/f2", "/d/sub/g"}) {
    auto a = legacy.lookup(p);
    auto b = sharded.lookup(p);
    ASSERT_EQ(a.ok(), b.ok()) << p;
    if (a.ok()) {
      EXPECT_EQ(a->file_id, b->file_id) << p;
      EXPECT_EQ(a->is_dir, b->is_dir) << p;
      EXPECT_EQ(a->size, b->size) << p;
      EXPECT_EQ(a->mtime, b->mtime) << p;
    }
  }
  auto la = legacy.readdir("/d");
  auto lb = sharded.readdir("/d");
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_EQ(*la, *lb);
}

// -- Client-level behaviour over a sharded cluster --------------------

struct ClusterFixture {
  explicit ClusterFixture(PfsConfig cfg, obs::Context* ctx = nullptr,
                          std::size_t actors = 1)
      : sched(actors), cluster(std::move(cfg), sched, nullptr, ctx) {}
  sim::VirtualScheduler sched;
  PfsCluster cluster;
};

TEST(ShardedClient, StaleBitmapClientConvergesFromEmptyCache) {
  obs::Registry registry;
  obs::Context ctx{nullptr, &registry};
  ClusterFixture fx(ShardedConfig(4, 16), &ctx);
  // Writer grows the namespace through many splits (its own cache keeps
  // pace one bounce at a time).
  PfsClient writer(fx.cluster, 0);
  constexpr int kFiles = 400;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(writer.create("/f" + std::to_string(i)).ok()) << i;
  }
  ASSERT_GT(fx.cluster.smds().splits(), 4u);
  const std::uint64_t bounces_after_writes =
      registry.counter("pfs.mds_stale_retries").value();
  EXPECT_GT(bounces_after_writes, 0u);

  // A fresh client starts from the empty bitmap (partition 0 only) and
  // must converge via lazy correction alone: every open succeeds, and
  // the bounces it pays are bounded by the split history, not by the
  // number of operations (the GIGA+ claim).
  PfsClient reader(fx.cluster, 0);
  for (int i = 0; i < kFiles; ++i) {
    auto fh = reader.open("/f" + std::to_string(i));
    ASSERT_TRUE(fh.ok()) << i;
    ASSERT_TRUE(reader.close(*fh).ok());
  }
  const std::uint64_t reader_bounces =
      registry.counter("pfs.mds_stale_retries").value() - bounces_after_writes;
  EXPECT_GT(reader_bounces, 0u);
  EXPECT_LT(reader_bounces, fx.cluster.smds().bitmap().highest() + 1);
  EXPECT_TRUE(fx.cluster.smds().check_placement_invariant());
}

TEST(ShardedClient, NamespaceLifecycleAcrossShards) {
  ClusterFixture fx(ShardedConfig(4, 16));
  PfsClient client(fx.cluster, 0);
  ASSERT_TRUE(client.mkdir("/dir").ok());
  EXPECT_EQ(client.mkdir("/dir").error(), Errc::exists);
  std::vector<std::string> expected;
  for (int i = 0; i < 120; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(client.create("/dir/" + name).ok());
    expected.push_back(name);
  }
  std::sort(expected.begin(), expected.end());
  auto names = client.readdir("/dir");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, expected);
  EXPECT_EQ(client.unlink("/dir").error(), Errc::not_empty);
  ASSERT_TRUE(client.rename("/dir/f0", "/dir/renamed").ok());
  EXPECT_EQ(client.open("/dir/f0").error(), Errc::not_found);
  EXPECT_TRUE(client.open("/dir/renamed").ok());
  // Data ops still resolve through the sharded namespace.
  auto fh = client.open("/dir/f1");
  ASSERT_TRUE(fh.ok());
  std::vector<std::uint8_t> payload(1000, 0x5a);
  ASSERT_TRUE(client.write(*fh, 0, payload).ok());
  auto st = client.stat("/dir/f1");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 1000u);
  ASSERT_TRUE(client.close(*fh).ok());
  ASSERT_TRUE(client.unlink("/dir/f1").ok());
  EXPECT_EQ(client.open("/dir/f1").error(), Errc::not_found);
}

TEST(ShardedClient, CreateNormalisesItsPathOnce) {
  PfsConfig pipelined = ShardedConfig(4, 16);
  pipelined.rpc_window = 32;
  pipelined.rpc_batch = 8;
  for (const PfsConfig& cfg :
       {ShardedConfig(1, 16), ShardedConfig(4, 16), pipelined}) {
    SCOPED_TRACE(std::to_string(cfg.num_mds_shards) + " shards, window " +
                 std::to_string(cfg.rpc_window));
    ClusterFixture fx(cfg);
    PfsClient client(fx.cluster, 0);
    ASSERT_TRUE(client.mkdir("/d").ok());
    auto fh = client.create("//d///f");
    ASSERT_TRUE(fh.ok());
    EXPECT_EQ(client.create("/d/f").error(), Errc::exists);
    EXPECT_EQ(*client.readdir("/d"), std::vector<std::string>{"f"});
    // The handle names the normal path: a write through it extends /d/f.
    ASSERT_TRUE(client.write(*fh, 0, MakePattern(3, 0, 100)).ok());
    ASSERT_TRUE(client.close(*fh).ok());
    EXPECT_EQ(client.stat("/d/f")->size, 100u);
    EXPECT_TRUE(fx.cluster.smds().check_placement_invariant());
  }
}

TEST(ShardedClient, OpenHandleFollowsItsFileThroughASplit) {
  // A handle caches its file's inode on the first data op; a GIGA+ split
  // that migrates the file to another shard must not strand it.
  ClusterFixture fx(ShardedConfig(4, 16));
  PfsClient client(fx.cluster, 0);
  auto fh = client.create("/moved");
  ASSERT_TRUE(fh.ok());
  const Bytes data = MakePattern(9, 0, 3000);
  ASSERT_TRUE(client.write(*fh, 0, data).ok());
  const std::uint32_t home = fx.cluster.smds().home_shard("/moved");
  int created = 0;
  Bytes out(4000);
  while (fx.cluster.smds().home_shard("/moved") == home) {
    ASSERT_LT(created, 2000) << "no split moved the file";
    // Each read re-validates the cached inode, so the last one before the
    // move holds a reference the move itself must invalidate.
    ASSERT_TRUE(client.read(*fh, 0, std::span(out).first(1)).ok());
    ASSERT_TRUE(client.create("/n" + std::to_string(created++)).ok());
  }
  auto n = client.read(*fh, 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), out.begin()));
  // A write through the handle extends the entry at its new home.
  ASSERT_TRUE(client.write(*fh, 3000, MakePattern(9, 3000, 500)).ok());
  auto st = client.stat("/moved");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3500u);
  EXPECT_TRUE(fx.cluster.smds().check_placement_invariant());
}

TEST(ShardedClient, PipelinedModeSurvivesSplitStorm) {
  PfsConfig cfg = ShardedConfig(4, 16);
  cfg.rpc_window = 32;
  cfg.rpc_batch = 8;
  ClusterFixture fx(cfg);
  PfsClient client(fx.cluster, 0);
  ASSERT_TRUE(client.pipelined());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(client.create("/p" + std::to_string(i)).ok()) << i;
  }
  EXPECT_GT(fx.cluster.smds().splits(), 4u);
  EXPECT_TRUE(fx.cluster.smds().check_placement_invariant());
  for (int i = 0; i < 400; ++i) {
    auto fh = client.open("/p" + std::to_string(i));
    ASSERT_TRUE(fh.ok()) << i;
    ASSERT_TRUE(client.close(*fh).ok());
  }
}

TEST(ShardedClient, ShardCountScalesCreateStorm) {
  // The tentpole claim in miniature: a concurrent create storm finishes
  // earlier (in virtual time) with more shards, because independent
  // service queues absorb it in parallel. A single serial client cannot
  // see this — each of its ops is a full round trip either way — so the
  // storm runs many ranks at once, metarates-style.
  constexpr int kClients = 32;
  constexpr int kPerClient = 40;
  struct Storm {
    double finish = 0.0;
    std::uint64_t splits = 0;
    std::uint64_t bounces = 0;
    std::uint64_t files = 0;
    bool placed = false;
  };
  auto storm = [](std::uint32_t shards) {
    obs::Registry registry;
    obs::Context ctx{nullptr, &registry};
    ClusterFixture fx(ShardedConfig(shards, 200), &ctx, kClients);
    const double finish = fx.sched.run([&](std::size_t c) {
      PfsClient client(fx.cluster, c);
      for (int i = 0; i < kPerClient; ++i) {
        EXPECT_TRUE(client
                        .create("/c" + std::to_string(c) + "_" +
                                std::to_string(i))
                        .ok());
      }
    });
    const ShardedMds& smds = fx.cluster.smds();
    return Storm{finish, smds.splits(),
                 registry.counter("pfs.mds_stale_retries").value(),
                 smds.total_files(), smds.check_placement_invariant()};
  };
  const Storm one = storm(1);
  const Storm eight = storm(8);
  EXPECT_GT(one.finish / eight.finish, 2.0)
      << "one=" << one.finish << " eight=" << eight.finish;
  // Concurrent growth loses no entry and misplaces none.
  ASSERT_GT(eight.splits, 0u);
  EXPECT_EQ(eight.files, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_TRUE(eight.placed);
  // Concurrent stale caches stay cheap: a bounce merges the whole
  // authoritative bitmap, so each client bounces at most once per split
  // it has not yet seen — bounded by split history, not by op count.
  EXPECT_GT(eight.bounces, 0u);
  EXPECT_LE(eight.bounces, kClients * eight.splits);
  EXPECT_EQ(one.bounces, 0u);  // the lone MDS never bounces
}

}  // namespace
}  // namespace pdsi::pfs
