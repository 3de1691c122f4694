// One set of namespace rules for every plfs::Backend that PLFS runs on:
// mkdir/create/readdir/rename/unlink give the same results and error
// codes on the in-memory store, the tiering engine's adapter (whose hot
// tier is the burst buffer), and the simulated PFS. The cases include the
// rules that once differed between the copies: a directory with a child
// is not emptied by a sibling that sorts between them ("/a.x" between
// "/a" and "/a/b"), the root is not unlinkable, a same-path rename
// succeeds, a file is not a directory, and a zero-length write past EOF
// leaves the file's size alone.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/backend.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/storage/device_catalog.h"
#include "pdsi/tier/tier_backend.h"
#include "pdsi/tier/tier_engine.h"

namespace pdsi {
namespace {

using plfs::Backend;

/// A backend under test and everything it runs on, torn down in reverse.
struct Store {
  std::unique_ptr<sim::VirtualScheduler> sched;
  std::unique_ptr<pfs::PfsCluster> cluster;
  std::unique_ptr<tier::TierEngine> engine;
  std::unique_ptr<Backend> backend;
};

/// A simulated cluster with one actor: the test thread.
void AddCluster(Store& s) {
  s.sched = std::make_unique<sim::VirtualScheduler>(1);
  s.cluster = std::make_unique<pfs::PfsCluster>(pfs::PfsConfig{}, *s.sched);
}

struct BackendCase {
  const char* name;
  std::function<void(Store&)> build;
  friend void PrintTo(const BackendCase& c, std::ostream* os) {
    *os << c.name;
  }
};

const BackendCase kCases[] = {
    {"mem", [](Store& s) { s.backend = plfs::MakeMemBackend(); }},
    {"tier",
     [](Store& s) {
       AddCluster(s);
       tier::TierEngineParams p;
       p.bb.ssd = storage::FlashDevice("fusionio-iodrive-duo");
       p.bb.ssd.capacity_bytes = 64 * MiB;
       p.warm_capacity_bytes = 8 * MiB;
       s.engine = std::make_unique<tier::TierEngine>(p, *s.cluster);
       s.backend = tier::MakeTierBackend(*s.engine);
     }},
    {"pfs",
     [](Store& s) {
       AddCluster(s);
       s.backend = plfs::MakePfsBackend(*s.cluster, 0);
     }},
};

class BackendNamespace : public ::testing::TestWithParam<BackendCase> {
 protected:
  void SetUp() override { GetParam().build(store_); }

  Backend& be() { return *store_.backend; }

  /// Creates an empty file and closes it.
  void Touch(const std::string& path) {
    auto h = be().create(path);
    ASSERT_TRUE(h.ok()) << path << ": " << ErrcName(h.error());
    ASSERT_TRUE(be().close(*h).ok());
  }

  std::vector<std::string> List(const std::string& path) {
    auto names = be().readdir(path);
    EXPECT_TRUE(names.ok()) << path << ": " << ErrcName(names.error());
    return names.value_or({});
  }

  Store store_;
};

TEST_P(BackendNamespace, MkdirCreateAndReaddir) {
  ASSERT_TRUE(be().mkdir("/d").ok());
  EXPECT_EQ(be().mkdir("/d").error(), Errc::exists);
  EXPECT_EQ(be().mkdir("/missing/d").error(), Errc::not_found);
  EXPECT_EQ(be().create("/missing/f").error(), Errc::not_found);
  Touch("/d/f");
  Touch("/d/e");
  EXPECT_EQ(be().create("/d/f").error(), Errc::exists);
  EXPECT_EQ(be().create("/d").error(), Errc::exists);

  EXPECT_EQ(List("/"), std::vector<std::string>{"d"});
  EXPECT_EQ(List("/d"), (std::vector<std::string>{"e", "f"}));
  EXPECT_EQ(be().readdir("/d/f").error(), Errc::not_dir);
  EXPECT_EQ(be().readdir("/nope").error(), Errc::not_found);

  EXPECT_TRUE(*be().is_dir("/"));
  EXPECT_TRUE(*be().is_dir("/d"));
  EXPECT_FALSE(*be().is_dir("/d/f"));
  EXPECT_EQ(be().is_dir("/nope").error(), Errc::not_found);
  EXPECT_TRUE(*be().exists("/d/f"));
  EXPECT_FALSE(*be().exists("/d/g"));
  EXPECT_EQ(be().open("/d").error(), Errc::is_dir);
  EXPECT_EQ(be().open("/d/g").error(), Errc::not_found);
}

TEST_P(BackendNamespace, FileIsNotADirectory) {
  Touch("/f");
  EXPECT_EQ(be().create("/f/x").error(), Errc::not_dir);
  EXPECT_EQ(be().mkdir("/f/d").error(), Errc::not_dir);
  EXPECT_FALSE(*be().exists("/f/x"));
  EXPECT_FALSE(*be().exists("/f/d"));
}

TEST_P(BackendNamespace, UnlinkRefusesDirectoryWithChildBesideDotSibling) {
  ASSERT_TRUE(be().mkdir("/a").ok());
  Touch("/a.x");  // sorts between "/a" and "/a/b"
  Touch("/a/b");
  EXPECT_EQ(be().unlink("/a").error(), Errc::not_empty);
  EXPECT_TRUE(*be().exists("/a/b"));
  EXPECT_EQ(List("/a"), std::vector<std::string>{"b"});

  ASSERT_TRUE(be().unlink("/a/b").ok());
  ASSERT_TRUE(be().unlink("/a").ok());
  EXPECT_FALSE(*be().exists("/a"));
  EXPECT_TRUE(*be().exists("/a.x"));
  EXPECT_EQ(be().unlink("/a").error(), Errc::not_found);
  EXPECT_EQ(List("/"), std::vector<std::string>{"a.x"});
}

TEST_P(BackendNamespace, RootIsNotUnlinkable) {
  EXPECT_EQ(be().unlink("/").error(), Errc::not_supported);
  ASSERT_TRUE(be().mkdir("/d").ok());
  EXPECT_EQ(be().unlink("/").error(), Errc::not_supported);
  EXPECT_TRUE(*be().is_dir("/"));
  EXPECT_EQ(List("/"), std::vector<std::string>{"d"});
}

TEST_P(BackendNamespace, SamePathRenameKeepsTheFile) {
  const Bytes data = MakePattern(3, 0, 4 * KiB);
  auto h = be().create("/f");
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(be().write(*h, 0, data).ok());
  ASSERT_TRUE(be().fsync(*h).ok());
  ASSERT_TRUE(be().close(*h).ok());

  ASSERT_TRUE(be().rename("/f", "/f").ok());
  EXPECT_EQ(List("/"), std::vector<std::string>{"f"});
  auto r = be().open("/f");
  ASSERT_TRUE(r.ok());
  Bytes back(data.size());
  auto n = be().read(*r, 0, back);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(back, data);
  ASSERT_TRUE(be().close(*r).ok());
}

TEST_P(BackendNamespace, ZeroLengthWriteDoesNotExtend) {
  const Bytes data = MakePattern(5, 0, 10);
  auto h = be().create("/f");
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(be().write(*h, 0, data).ok());
  ASSERT_TRUE(be().write(*h, 1000, {}).ok());
  ASSERT_TRUE(be().fsync(*h).ok());
  EXPECT_EQ(*be().size(*h), data.size());
  ASSERT_TRUE(be().close(*h).ok());
  EXPECT_EQ(*be().stat_size("/f"), data.size());
}

TEST_P(BackendNamespace, RenameMovesFilesOnly) {
  ASSERT_TRUE(be().mkdir("/d").ok());
  Touch("/d/f");
  Touch("/d/h");
  Touch("/file");

  ASSERT_TRUE(be().rename("/d/f", "/d/g").ok());
  EXPECT_FALSE(*be().exists("/d/f"));
  EXPECT_EQ(List("/d"), (std::vector<std::string>{"g", "h"}));

  EXPECT_EQ(be().rename("/d/nope", "/d/x").error(), Errc::not_found);
  EXPECT_EQ(be().rename("/d/g", "/d/h").error(), Errc::exists);
  EXPECT_EQ(be().rename("/d", "/e").error(), Errc::not_supported);
  EXPECT_EQ(be().rename("/d/g", "/missing/g").error(), Errc::not_found);
  EXPECT_EQ(be().rename("/d/g", "/file/g").error(), Errc::not_dir);
  EXPECT_EQ(List("/d"), (std::vector<std::string>{"g", "h"}));

  ASSERT_TRUE(be().rename("/d/g", "/g").ok());
  EXPECT_EQ(List("/"), (std::vector<std::string>{"d", "file", "g"}));
}

TEST_P(BackendNamespace, UnlinkRemovesFilesAndEmptyDirectories) {
  ASSERT_TRUE(be().mkdir("/d").ok());
  ASSERT_TRUE(be().mkdir("/d/sub").ok());
  Touch("/d/f");
  EXPECT_EQ(be().unlink("/d").error(), Errc::not_empty);
  ASSERT_TRUE(be().unlink("/d/f").ok());
  EXPECT_EQ(be().unlink("/d/f").error(), Errc::not_found);
  EXPECT_EQ(be().unlink("/d").error(), Errc::not_empty);
  ASSERT_TRUE(be().unlink("/d/sub").ok());
  ASSERT_TRUE(be().unlink("/d").ok());
  EXPECT_TRUE(List("/").empty());

  // The name is free again: a new file there starts empty.
  auto h = be().create("/d");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*be().size(*h), 0u);
  ASSERT_TRUE(be().close(*h).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendNamespace,
                         ::testing::ValuesIn(kCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace pdsi
