// Tests for the parallel file system substrate: namespace semantics, data
// round trips, striping, locking behaviour, and the performance asymmetry
// (sequential streams fast, interleaved strided writes pathological) that
// the PLFS experiments depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/consist/model.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/pfs/sparse_buffer.h"

namespace pdsi::pfs {
namespace {

TEST(SparseBuffer, WriteReadRoundTrip) {
  SparseBuffer b(1024);
  auto data = MakePattern(1, 0, 5000);
  b.write(100, data);
  EXPECT_EQ(b.size(), 5100u);
  Bytes out(5000);
  b.read(100, out);
  EXPECT_EQ(out, data);
}

TEST(SparseBuffer, HolesReadAsZeros) {
  SparseBuffer b(1024);
  b.write(10000, MakePattern(1, 0, 10));
  Bytes out(100);
  b.read(0, out);
  for (auto v : out) EXPECT_EQ(v, 0);
}

// Drives SparseBuffer and a flat byte vector (the reference: its length
// is the file size) through the same seeded writes and reads: writes that
// cross chunk boundaries or land below and above a chunk's extent,
// zero-length writes anywhere, trims to the chunks' extents, and reads
// past a chunk's extent and past EOF. Bytes and size() must match after
// every operation.
TEST(SparseBuffer, MatchesFlatReference) {
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{1024}}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << "chunk " << chunk << " seed " << seed);
      Rng rng(seed);
      SparseBuffer b(chunk);
      Bytes flat;
      const std::uint64_t span = 32 * chunk;
      for (int op = 0; op < 300; ++op) {
        const std::uint64_t off = rng.below(span);
        const double dice = rng.uniform();
        if (dice < 0.1) {
          b.write(rng.chance(0.5) ? off : flat.size() + rng.below(2 * chunk), {});
        } else if (dice < 0.15) {
          b.shrink_to_fit();
          ASSERT_LE(b.allocated_bytes(), flat.size()) << "op " << op;
        } else if (dice < 0.6) {
          const std::size_t len = 1 + (rng.chance(0.8) ? rng.below(chunk / 4)
                                                        : rng.below(3 * chunk));
          const Bytes data = MakePattern(static_cast<std::uint32_t>(op), off, len);
          b.write(off, data);
          if (off + len > flat.size()) flat.resize(off + len, 0);
          std::copy(data.begin(), data.end(), flat.begin() + static_cast<long>(off));
        } else {
          Bytes got(rng.below(3 * chunk), 0xAA);
          b.read(off, got);
          for (std::size_t k = 0; k < got.size(); ++k) {
            const std::uint64_t pos = off + k;
            ASSERT_EQ(got[k], pos < flat.size() ? flat[pos] : 0) << "op " << op << " pos " << pos;
          }
        }
        ASSERT_EQ(b.size(), flat.size()) << "op " << op;
        Bytes whole(flat.size() + chunk, 0xAA);
        b.read(0, whole);
        ASSERT_TRUE(std::equal(flat.begin(), flat.end(), whole.begin())) << "op " << op;
        ASSERT_TRUE(std::all_of(whole.begin() + static_cast<long>(flat.size()), whole.end(),
                                [](std::uint8_t v) { return v == 0; }))
            << "op " << op;
      }
    }
  }
}

// One restart_read data dropping: 64 appended records of 512-1024 B. The
// chunk grows with the log, so memory stays within 2x the bytes written
// (a whole 256 KiB chunk per dropping would be about 5x here); the trim
// at close then gives the growth slack back.
TEST(SparseBuffer, AppendedLogAllocatesAboutItsLength) {
  Rng rng(18);
  SparseBuffer b;
  std::uint64_t written = 0;
  for (int r = 0; r < 64; ++r) {
    const Bytes rec = MakePattern(1, written, 512 + rng.below(513));
    b.write(written, rec);
    written += rec.size();
    ASSERT_LE(b.allocated_bytes(), 2 * written) << "record " << r;
  }
  EXPECT_EQ(b.size(), written);
  Bytes back(written);
  b.read(0, back);
  EXPECT_EQ(FindPatternMismatch(1, 0, back), kNoMismatch);

  b.shrink_to_fit();
  EXPECT_EQ(b.allocated_bytes(), b.size());
  b.read(0, back);
  EXPECT_EQ(FindPatternMismatch(1, 0, back), kNoMismatch);

  // The log grows again after a trim.
  const Bytes more = MakePattern(1, written, 700);
  b.write(written, more);
  written += more.size();
  Bytes all(written);
  b.read(0, all);
  EXPECT_EQ(FindPatternMismatch(1, 0, all), kNoMismatch);
}

// A dense file written front to back in unaligned pieces ends with every
// chunk full: memory stays within one chunk of the file's length.
TEST(SparseBuffer, DenseFileAllocatesAboutItsLength) {
  constexpr std::uint64_t kChunk = 256 * KiB;
  constexpr std::uint64_t kTotal = 4 * MiB;
  SparseBuffer b(kChunk);
  for (std::uint64_t off = 0; off < kTotal;) {
    const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(100000, kTotal - off));
    b.write(off, MakePattern(2, off, len));
    off += len;
  }
  EXPECT_EQ(b.size(), kTotal);
  EXPECT_GE(b.allocated_bytes(), kTotal);
  EXPECT_LE(b.allocated_bytes(), kTotal + kChunk);
  Bytes back(kTotal);
  b.read(0, back);
  EXPECT_EQ(FindPatternMismatch(2, 0, back), kNoMismatch);
}

TEST(Namespace, GenerationCountsErasuresAndReplacements) {
  // An open handle's cached entry pointer stays valid exactly while the
  // generation is unchanged: every op that erases or replaces an entry
  // bumps it, and no other op may.
  Namespace ns;
  auto gen = [&ns] { return ns.generation(); };
  std::uint64_t g = gen();
  ASSERT_TRUE(ns.mkdir("/d").ok());
  ASSERT_TRUE(ns.create("/d/a", 1.0).ok());
  Inode* a = ns.find("/d/a");
  ASSERT_NE(a, nullptr);
  a->extend(100, 2.0);
  EXPECT_EQ(ns.create("/d/a", 1.0).error(), Errc::exists);
  EXPECT_EQ(ns.unlink("/d/missing").error(), Errc::not_found);
  EXPECT_TRUE(ns.rename("/d/a", "/d/a", 3.0).ok());  // no-op
  ASSERT_TRUE(ns.create("/d/c", 1.0).ok());
  EXPECT_EQ(gen(), g);
  EXPECT_EQ(ns.find("/d/a"), a);
  EXPECT_EQ(ns.lookup("/d/a")->size, 100u);

  ASSERT_TRUE(ns.rename("/d/a", "/d/b", 4.0).ok());
  EXPECT_GT(gen(), g);
  g = gen();
  Inode b;
  ASSERT_TRUE(ns.take("/d/b", &b));
  EXPECT_GT(gen(), g);
  g = gen();
  ns.install("/d/b", b);
  EXPECT_GT(gen(), g);
  g = gen();
  ASSERT_TRUE(ns.unlink("/d/b").ok());
  EXPECT_GT(gen(), g);
  EXPECT_EQ(ns.find("/d/b"), nullptr);
}

TEST(Paths, Normalization) {
  EXPECT_EQ(NormalizePath("/a//b/"), "/a/b");
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(ParentPath("/a/b"), "/a");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_THROW(NormalizePath("relative"), std::invalid_argument);
}

TEST(Paths, NormalizedCopiesOnlyWhatIsNotNormal) {
  for (const std::string p :
       {"/", "//", "/a", "/a/", "//a", "/a//b", "/a/b", "/a/b/", "/a.x/b"}) {
    std::string own;
    const std::string& n = Normalized(p, &own);
    EXPECT_EQ(n, NormalizePath(p)) << p;
    EXPECT_EQ(&n == &p, NormalizePath(p) == p) << p;  // copied only if needed
  }
  std::string own;
  EXPECT_THROW(Normalized("", &own), std::invalid_argument);
  EXPECT_THROW(Normalized("relative", &own), std::invalid_argument);
}

class PfsFixture : public ::testing::Test {
 protected:
  PfsFixture()
      : sched_(1), cluster_(PfsConfig::PanFsLike(4), sched_), client_(cluster_, 0) {}

  sim::VirtualScheduler sched_;
  PfsCluster cluster_;
  PfsClient client_;
};

TEST_F(PfsFixture, NamespaceLifecycle) {
  EXPECT_TRUE(client_.mkdir("/dir").ok());
  EXPECT_EQ(client_.mkdir("/dir").error(), Errc::exists);
  EXPECT_EQ(client_.mkdir("/nope/sub").error(), Errc::not_found);

  auto fh = client_.create("/dir/f");
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(client_.create("/dir/f").error(), Errc::exists);
  EXPECT_EQ(client_.open("/dir/missing").error(), Errc::not_found);
  EXPECT_EQ(client_.open("/dir").error(), Errc::is_dir);

  auto names = client_.readdir("/dir");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ(names->front(), "f");

  EXPECT_EQ(client_.unlink("/dir").error(), Errc::not_empty);
  EXPECT_TRUE(client_.unlink("/dir/f").ok());
  EXPECT_TRUE(client_.unlink("/dir").ok());
  EXPECT_EQ(client_.unlink("/dir").error(), Errc::not_found);
}

TEST_F(PfsFixture, WriteReadBackExact) {
  auto fh = client_.create("/f");
  ASSERT_TRUE(fh.ok());
  const auto data = MakePattern(7, 0, 3 * MiB + 137);  // spans stripes
  EXPECT_TRUE(client_.write(*fh, 0, data).ok());
  Bytes out(data.size());
  auto n = client_.read(*fh, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(HashBytes(out), HashBytes(data));
}

TEST_F(PfsFixture, ReadShortAtEof) {
  auto fh = client_.create("/f");
  ASSERT_TRUE(fh.ok());
  client_.write(*fh, 0, MakePattern(1, 0, 1000));
  Bytes out(600);
  auto n = client_.read(*fh, 800, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  auto n2 = client_.read(*fh, 5000, out);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST_F(PfsFixture, SparseHolesReadZero) {
  auto fh = client_.create("/f");
  ASSERT_TRUE(fh.ok());
  client_.write(*fh, 1 * MiB, MakePattern(1, 0, 16));
  Bytes out(32);
  auto n = client_.read(*fh, 1 * MiB - 16, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 32u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 0);
  EXPECT_EQ(FindPatternMismatch(1, 0, std::span(out).subspan(16)), kNoMismatch);
}

TEST_F(PfsFixture, StatTracksSize) {
  auto fh = client_.create("/f");
  ASSERT_TRUE(fh.ok());
  client_.write(*fh, 0, MakePattern(1, 0, 100));
  client_.write(*fh, 500, MakePattern(1, 500, 100));
  auto st = client_.stat("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 600u);
  EXPECT_FALSE(st->is_dir);
}

TEST_F(PfsFixture, RenameMovesFile) {
  auto fh = client_.create("/a");
  ASSERT_TRUE(fh.ok());
  client_.write(*fh, 0, MakePattern(2, 0, 64));
  ASSERT_TRUE(client_.close(*fh).ok());
  EXPECT_TRUE(client_.rename("/a", "/b").ok());
  EXPECT_EQ(client_.open("/a").error(), Errc::not_found);
  auto fh2 = client_.open("/b");
  ASSERT_TRUE(fh2.ok());
  Bytes out(64);
  ASSERT_TRUE(client_.read(*fh2, 0, out).ok());
  EXPECT_EQ(FindPatternMismatch(2, 0, out), kNoMismatch);
}

// An open handle caches its file's inode after the first data op. These
// pin that the cache is invisible: each case reads exactly what a fresh
// path lookup per call returns.
TEST_F(PfsFixture, HandleReadAfterRenameOrUnlinkIsNotFound) {
  for (const bool unlink : {false, true}) {
    SCOPED_TRACE(unlink ? "unlink" : "rename");
    auto fh = client_.create("/h");
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(client_.write(*fh, 0, MakePattern(3, 0, 4096)).ok());
    Bytes out(4096);
    ASSERT_EQ(*client_.read(*fh, 0, out), 4096u);  // resolves the inode
    if (unlink) {
      ASSERT_TRUE(client_.unlink("/h").ok());
    } else {
      ASSERT_TRUE(client_.rename("/h", "/h2").ok());
    }
    EXPECT_EQ(client_.read(*fh, 0, out).error(), Errc::not_found);
    EXPECT_TRUE(client_.close(*fh).ok());
    if (!unlink) {
      ASSERT_TRUE(client_.unlink("/h2").ok());
    }
  }
}

TEST_F(PfsFixture, HandleSeesTheFileRecreatedAtItsPath) {
  // After an unlink and a re-create at the same path, the old handle's EOF
  // clamp follows the new file, as a per-call path lookup does.
  auto fh = client_.create("/h");
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(client_.write(*fh, 0, MakePattern(3, 0, 4096)).ok());
  Bytes out(4096);
  ASSERT_EQ(*client_.read(*fh, 0, out), 4096u);
  ASSERT_TRUE(client_.unlink("/h").ok());
  auto fresh = client_.create("/h");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(client_.write(*fresh, 0, MakePattern(4, 0, 100)).ok());
  auto n = client_.read(*fh, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);
}

TEST_F(PfsFixture, HandlesAreReusedLowestFirst) {
  // Handle numbers are those of a scan from slot 0: closed slots are
  // reused lowest first, before any new slot.
  for (int i = 0; i < 1000; ++i) {
    auto fh = client_.create("/f" + std::to_string(i));
    ASSERT_TRUE(fh.ok());
    ASSERT_EQ(*fh, i);
  }
  ASSERT_TRUE(client_.close(3).ok());
  ASSERT_TRUE(client_.close(700).ok());
  EXPECT_EQ(client_.create("/g0").value_or(-1), 3);
  EXPECT_EQ(client_.create("/g1").value_or(-1), 700);
  EXPECT_EQ(client_.open("/f3").value_or(-1), 1000);
  // A reused slot names its new file.
  ASSERT_TRUE(client_.write(3, 0, MakePattern(7, 0, 10)).ok());
  EXPECT_EQ(client_.file_size(3).value_or(0), 10u);
  EXPECT_EQ(client_.stat("/f3")->size, 0u);
}

TEST(PfsHandle, AnotherClientsExtendIsVisibleToTheEofClamp) {
  sim::VirtualScheduler sched(2);
  PfsCluster cluster(PfsConfig::PanFsLike(4), sched);
  sim::VirtualBarrier barrier(sched);
  Result<std::size_t> before(Errc::io_error);
  Result<std::size_t> after(Errc::io_error);
  Status extended = Errc::io_error;
  // No ASSERT before a barrier: a body that returned early would leave
  // its peer parked there.
  sched.run([&](std::size_t a) {
    PfsClient client(cluster, a);
    Bytes out(4096);
    if (a == 0) {
      const FileHandle fh = client.create("/shared").value_or(-1);
      EXPECT_TRUE(client.write(fh, 0, MakePattern(5, 0, 1000)).ok());
      before = client.read(fh, 0, out);  // caches the inode
      barrier.arrive(a);                 // actor 1 extends the file
      barrier.arrive(a);
      after = client.read(fh, 0, out);
      return;
    }
    barrier.arrive(a);
    const FileHandle fh = client.open("/shared").value_or(-1);
    extended = client.write(fh, 3000, MakePattern(6, 3000, 1000));
    barrier.arrive(a);
  });
  EXPECT_TRUE(extended.ok());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, 1000u);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 4000u);
}

TEST_F(PfsFixture, BadHandleRejected) {
  Bytes buf(10);
  EXPECT_EQ(client_.write(99, 0, buf).error(), Errc::bad_handle);
  EXPECT_EQ(client_.read(99, 0, buf).error(), Errc::bad_handle);
  EXPECT_EQ(client_.close(99).error(), Errc::bad_handle);
}

TEST_F(PfsFixture, TimeAdvancesWithWork) {
  auto fh = client_.create("/f");
  const double t0 = client_.now();
  client_.write(*fh, 0, MakePattern(1, 0, 8 * MiB));
  client_.fsync(*fh);
  EXPECT_GT(client_.now(), t0);
  // 8 MiB at ~120 MB/s media rate is at least 60 ms of disk time in total,
  // but striped over 4 servers it completes faster than serial.
  const double elapsed = client_.now() - t0;
  EXPECT_GT(elapsed, 8.0 * MiB / (4 * 200e6));
  EXPECT_LT(elapsed, 1.0);
}

TEST_F(PfsFixture, ReaddirBatchChargeBoundaries) {
  // The first 1024 entries arrive with the initial RPC reply; only the
  // entries beyond them cost extra MDS round trips. The old accounting
  // charged size()/1024 extra batches, double-charging the first batch
  // the moment a listing reached exactly 1024 entries.
  auto listing_cost = [&](const char* dir, std::size_t entries) {
    EXPECT_TRUE(client_.mkdir(dir).ok());
    for (std::size_t i = 0; i < entries; ++i) {
      auto fh = client_.create(std::string(dir) + "/f" + std::to_string(i));
      EXPECT_TRUE(fh.ok());
      EXPECT_TRUE(client_.close(*fh).ok());
    }
    const double before = client_.now();
    auto r = client_.readdir(dir);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->size(), entries);
    return client_.now() - before;
  };
  const double d1023 = listing_cost("/a", 1023);
  const double d1024 = listing_cost("/b", 1024);
  const double d1025 = listing_cost("/c", 1025);
  const double mds_op = cluster_.config().mds_op_s;
  // NEAR at 1e-9: durations are differences of absolute clock values at
  // different (second-scale) magnitudes, so rounding noise reaches
  // ~1e-12; the question being pinned — one extra 300e-6 s batch or not —
  // sits five orders of magnitude above the tolerance.
  EXPECT_NEAR(d1023, d1024, 1e-9) << "1024 entries fit the first batch exactly";
  EXPECT_NEAR(d1025, d1024 + mds_op, 1e-9) << "entry 1025 starts the second batch";

  // And the empty listing charges the base RPC alone.
  EXPECT_TRUE(client_.mkdir("/empty").ok());
  const double before = client_.now();
  EXPECT_TRUE(client_.readdir("/empty").ok());
  EXPECT_NEAR(client_.now() - before, d1023, 1e-9)
      << "an empty dir costs the same base RPC as any single-batch listing";
}

TEST(Placement, RoundRobinCoversAllServers) {
  auto p = MakeRoundRobinPlacement();
  std::vector<int> hits(8, 0);
  for (std::uint64_t s = 0; s < 64; ++s) ++hits[p->server_for(3, s, 8)];
  for (int h : hits) EXPECT_EQ(h, 8);
}

TEST(Placement, HashedIsBalancedOverManyFiles) {
  auto p = MakeHashedPlacement();
  std::vector<int> hits(8, 0);
  for (std::uint64_t f = 0; f < 500; ++f) {
    for (std::uint64_t s = 0; s < 16; ++s) ++hits[p->server_for(f, s, 8)];
  }
  for (int h : hits) {
    EXPECT_GT(h, 800);
    EXPECT_LT(h, 1200);
  }
}

TEST(Placement, RaidGroupConfinesFile) {
  auto p = MakeRaidGroupPlacement(3);
  std::set<std::uint32_t> servers;
  for (std::uint64_t s = 0; s < 100; ++s) servers.insert(p->server_for(42, s, 16));
  EXPECT_EQ(servers.size(), 3u);
}

// The stripe walk every data path shares (client reads and writes, the
// burst-buffer drain, the tiering engine's warm reads): on an unaligned
// range the chunks tile it in offset order, never cross a stripe-unit
// boundary, and land on the placement's server for their stripe.
TEST(StripeWalk, ChunksTileTheRangeOnPlacementServers) {
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(PfsConfig::PanFsLike(4), sched, MakeHashedPlacement());
  const std::uint64_t unit = cluster.config().stripe_unit;
  const std::uint64_t file = 7;
  const std::uint64_t off = unit / 2 + 13;
  const std::uint64_t len = 3 * unit + 101;  // ends past a 4th boundary
  std::uint64_t next = off;
  int chunks = 0;
  const bool finished = cluster.for_each_chunk(
      file, off, len, [&](std::uint32_t server, std::uint64_t pos, std::uint64_t n) {
        EXPECT_EQ(pos, next) << "chunks must tile the range in order";
        EXPECT_GT(n, 0u);
        EXPECT_EQ(pos / unit, (pos + n - 1) / unit) << "chunk crosses a stripe";
        EXPECT_TRUE((pos + n) % unit == 0 || pos + n == off + len)
            << "chunk stops short of its stripe's end";
        EXPECT_EQ(server,
                  cluster.placement().server_for(file, pos / unit, cluster.num_oss()));
        next = pos + n;
        ++chunks;
        return true;
      });
  EXPECT_TRUE(finished);
  EXPECT_EQ(next, off + len);
  EXPECT_EQ(chunks, 4);  // tail of stripe 0, stripes 1 and 2, head of 3
}

TEST(StripeWalk, StopsWhenFnReturnsFalseAndSkipsEmptyRanges) {
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(PfsConfig::PanFsLike(4), sched);
  const std::uint64_t unit = cluster.config().stripe_unit;
  int calls = 0;
  EXPECT_FALSE(cluster.for_each_chunk(
      1, 0, 4 * unit, [&](std::uint32_t, std::uint64_t, std::uint64_t) {
        return ++calls < 2;
      }));
  EXPECT_EQ(calls, 2) << "the walk must stop at the first false";
  calls = 0;
  EXPECT_TRUE(cluster.for_each_chunk(
      1, unit / 3, 0, [&](std::uint32_t, std::uint64_t, std::uint64_t) {
        ++calls;
        return true;
      }));
  EXPECT_EQ(calls, 0);
}

// The replica failover target both the client and the tiering engine use:
// the next server in ring order that is up at that instant.
TEST(StripeWalk, SurvivorIsNextUpServerInRingOrder) {
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(PfsConfig::PanFsLike(4), sched);
  EXPECT_EQ(cluster.survivor(3, 0.0), 0u) << "no injector: every server is up";
  fault::FaultInjector inj(fault::FaultPlan{}, 4);
  inj.force_down(1, 0.0, 10.0);
  inj.force_down(2, 0.0, 10.0);
  cluster.set_fault(&inj);
  EXPECT_EQ(cluster.survivor(0, 5.0), 3u);
  EXPECT_EQ(cluster.survivor(1, 5.0), 3u);
  EXPECT_EQ(cluster.survivor(3, 5.0), 0u);
  EXPECT_EQ(cluster.survivor(1, 20.0), 2u) << "windows end at their restart";
  inj.force_down(0, 0.0, 10.0);
  inj.force_down(3, 0.0, 10.0);
  EXPECT_EQ(cluster.survivor(2, 5.0), 2u) << "everyone down: no survivor";
  cluster.set_fault(nullptr);
}

// A personality that prints as its name. gtest prints a PfsConfig byte by
// byte, starting with a heap address, and ctest builds the test name from
// that print, so the name would change from build to build.
struct Personality : PfsConfig {
  friend void PrintTo(const Personality& p, std::ostream* os) {
    *os << p.name;
  }
};

// The core asymmetry behind Fig. 8: N ranks writing sequential private
// files achieve far more aggregate bandwidth than the same ranks writing
// interleaved small strided records into one shared file.
class NTo1Pathology : public ::testing::TestWithParam<Personality> {};

TEST_P(NTo1Pathology, SharedStridedSlowerThanPrivateSequential) {
  constexpr int kRanks = 8;
  constexpr std::uint64_t kRecord = 47 * KiB + 317;  // small, unaligned
  constexpr int kRecordsPerRank = 24;

  auto run = [&](bool shared) {
    PfsConfig cfg = GetParam();
    cfg.store_data = false;
    sim::VirtualScheduler sched(kRanks);
    PfsCluster cluster(cfg, sched);
    // Rank 0 pre-creates the shared file in a separate single-actor phase
    // is unnecessary: create is idempotent enough if only rank 0 creates
    // and others open after a barrier.
    sim::VirtualBarrier barrier(sched);
    return sched.run([&](std::size_t actor) {
      const int r = static_cast<int>(actor);
      PfsClient client(cluster, r);
      FileHandle fh;
      if (shared) {
        if (r == 0) {
          fh = *client.create("/ckpt");
          barrier.arrive(r);
        } else {
          barrier.arrive(r);
          fh = *client.open("/ckpt");
        }
      } else {
        fh = *client.create("/ckpt." + std::to_string(r));
        barrier.arrive(r);
      }
      for (int i = 0; i < kRecordsPerRank; ++i) {
        // Shared: strided N-1 layout. Private: sequential log.
        const std::uint64_t off =
            shared ? (static_cast<std::uint64_t>(i) * kRanks + r) * kRecord
                   : static_cast<std::uint64_t>(i) * kRecord;
        Bytes data(kRecord);  // contents irrelevant in timing mode
        ASSERT_TRUE(client.write(fh, off, data).ok());
      }
      client.close(fh);
      barrier.arrive(r);
    });
  };

  const double shared_time = run(true);
  const double private_time = run(false);
  EXPECT_GT(shared_time / private_time, 3.0)
      << GetParam().name << ": shared=" << shared_time
      << " private=" << private_time;
}

INSTANTIATE_TEST_SUITE_P(Personalities, NTo1Pathology,
                         ::testing::Values(Personality{PfsConfig::PanFsLike(4)},
                                           Personality{PfsConfig::LustreLike(4)},
                                           Personality{PfsConfig::GpfsLike(4)}),
                         [](const auto& param_info) {
                           std::string n = param_info.param.name;
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// Lock accounting pins: the pfs.lock_conflicts counter and pfs.lock_wait_s
// histogram must attribute waits to actual protocol conflicts — and add
// nothing on the uncontended fast path.

// Two ranks write interleaved records; `disjoint` keeps each rank in its
// own 64 KiB-aligned region (separate extent-lock units), otherwise both
// hammer the same units. Returns {lock_conflicts, lock_wait samples}.
std::pair<std::uint64_t, std::uint64_t> RunLockWorkload(
    LockProtocol locking, bool disjoint,
    consist::ConsistencyModel model = consist::ConsistencyModel::posix) {
  obs::Registry reg;
  obs::Context ctx;
  ctx.registry = &reg;
  PfsConfig cfg = PfsConfig::PanFsLike(2);
  cfg.locking = locking;
  cfg.consistency = model;
  cfg.store_data = false;
  sim::VirtualScheduler sched(2);
  PfsCluster cluster(cfg, sched, nullptr, &ctx);
  sim::VirtualBarrier barrier(sched);
  sched.run([&](std::size_t actor) {
    const int r = static_cast<int>(actor);
    PfsClient client(cluster, r);
    FileHandle fh;
    if (r == 0) {
      fh = *client.create("/locked");
      barrier.arrive(r);
    } else {
      barrier.arrive(r);
      fh = *client.open("/locked");
    }
    for (int i = 0; i < 8; ++i) {
      Bytes data(4 * KiB);
      const std::uint64_t off =
          disjoint ? static_cast<std::uint64_t>(r) * MiB +
                         static_cast<std::uint64_t>(i) * 64 * KiB
                   : static_cast<std::uint64_t>(i) * 64 * KiB;
      ASSERT_TRUE(client.write(fh, off, data).ok());
    }
    client.close(fh);
    barrier.arrive(r);
  });
  return {reg.counter("pfs.lock_conflicts").value(),
          reg.histogram("pfs.lock_wait_s", obs::LatencyBuckets()).total()};
}

TEST(LockAccounting, SingleWriterFastPathAddsNothing) {
  for (LockProtocol locking : {LockProtocol::whole_file, LockProtocol::extent}) {
    obs::Registry reg;
    obs::Context ctx;
    ctx.registry = &reg;
    PfsConfig cfg = PfsConfig::PanFsLike(2);
    cfg.locking = locking;
    cfg.store_data = false;
    sim::VirtualScheduler sched(1);
    PfsCluster cluster(cfg, sched, nullptr, &ctx);
    PfsClient client(cluster, 0);
    auto fh = *client.create("/solo");
    for (int i = 0; i < 8; ++i) {
      Bytes data(4 * KiB);
      ASSERT_TRUE(
          client.write(fh, static_cast<std::uint64_t>(i) * 64 * KiB, data).ok());
    }
    client.close(fh);
    EXPECT_EQ(reg.counter("pfs.lock_conflicts").value(), 0u)
        << "uncontended writes must not count as conflicts";
    EXPECT_EQ(reg.histogram("pfs.lock_wait_s", obs::LatencyBuckets()).total(), 0u)
        << "the no-conflict fast path must record no wait samples";
  }
}

TEST(LockAccounting, DisjointWritersConflictOnlyUnderWholeFileLocking) {
  const auto [extent_conflicts, extent_waits] =
      RunLockWorkload(LockProtocol::extent, /*disjoint=*/true);
  EXPECT_EQ(extent_conflicts, 0u)
      << "disjoint 64 KiB-aligned regions own disjoint extent units";
  EXPECT_EQ(extent_waits, 0u);

  const auto [wf_conflicts, wf_waits] =
      RunLockWorkload(LockProtocol::whole_file, /*disjoint=*/true);
  EXPECT_GT(wf_conflicts, 0u)
      << "whole-file locking serialises even non-overlapping writers";
  EXPECT_GE(wf_waits, wf_conflicts)
      << "every revocation shows up as a wait sample";
}

TEST(LockAccounting, OverlappingExtentWritersConflict) {
  const auto [conflicts, waits] =
      RunLockWorkload(LockProtocol::extent, /*disjoint=*/false);
  EXPECT_GT(conflicts, 0u);
  EXPECT_EQ(waits, conflicts)
      << "extent-lock waits and conflicts are charged under one condition";
}

// Exact regression pins for the POSIX-mode lock path: the consist work
// rewired write() around the model switch and the WholeFileGrant RAII
// helper, and these counts must not move while the model stays posix.
TEST(LockAccounting, PosixModeLockChargesPinnedExactly) {
  const auto [wf_dis_c, wf_dis_w] =
      RunLockWorkload(LockProtocol::whole_file, /*disjoint=*/true);
  EXPECT_EQ(wf_dis_c, 13u);
  EXPECT_EQ(wf_dis_w, 13u);
  const auto [wf_ovl_c, wf_ovl_w] =
      RunLockWorkload(LockProtocol::whole_file, /*disjoint=*/false);
  EXPECT_EQ(wf_ovl_c, 13u);
  EXPECT_EQ(wf_ovl_w, 13u);
  const auto [ex_ovl_c, ex_ovl_w] =
      RunLockWorkload(LockProtocol::extent, /*disjoint=*/false);
  EXPECT_EQ(ex_ovl_c, 8u);
  EXPECT_EQ(ex_ovl_w, 8u);
}

// Relaxed consistency models bypass the lock path entirely: no conflicts
// charged, no wait samples — visibility is deferred to close/sync instead.
TEST(LockAccounting, RelaxedModelsSkipTheLockPath) {
  for (consist::ConsistencyModel m :
       {consist::ConsistencyModel::session, consist::ConsistencyModel::commit,
        consist::ConsistencyModel::mpiio}) {
    for (LockProtocol locking :
         {LockProtocol::whole_file, LockProtocol::extent}) {
      const auto [conflicts, waits] =
          RunLockWorkload(locking, /*disjoint=*/false, m);
      EXPECT_EQ(conflicts, 0u) << ConsistencyModelName(m);
      EXPECT_EQ(waits, 0u) << ConsistencyModelName(m);
    }
  }
}

// WholeFileGrant owns a granted whole-file unit: completing stamps the
// op's finish time; abandoning (error path) releases at the grant instant
// so no phantom hold outlives the op.
TEST(WholeFileGrant, AbandonedGrantReleasesAtGrantInstant) {
  PfsCluster::LockUnit unit;
  {
    WholeFileGrant g;
    g.arm(&unit, 2.5);
    EXPECT_TRUE(g.held());
  }  // destroyed without complete(): early-exit path
  EXPECT_EQ(unit.free, 2.5);
}

TEST(WholeFileGrant, CompleteStampsOnceAndDisarms) {
  PfsCluster::LockUnit unit;
  WholeFileGrant g;
  EXPECT_FALSE(g.held());
  g.arm(&unit, 1.0);
  g.complete(4.0);
  EXPECT_FALSE(g.held());
  EXPECT_EQ(unit.free, 4.0);
  g.complete(9.0);  // disarmed: no effect
  g.release();
  EXPECT_EQ(unit.free, 4.0);
}

// A write that fails mid-op (both servers down, retry budget exhausted)
// must still stamp the whole-file unit with its own completion time: a
// leaked hold would block every later acquirer behind a lock nobody
// holds.
TEST(WholeFileGrant, FailedWriteCannotLeakAHeldLockUnit) {
  obs::Registry reg;
  obs::Context ctx;
  ctx.registry = &reg;
  PfsConfig cfg = PfsConfig::PanFsLike(2);
  cfg.locking = LockProtocol::whole_file;
  cfg.store_data = false;
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(cfg, sched, nullptr, &ctx);
  fault::FaultPlan plan;
  fault::FaultInjector fault(plan, cluster.num_oss());
  fault.force_down(0, 0.0, 500.0);
  fault.force_down(1, 0.0, 500.0);
  cluster.set_fault(&fault);

  PfsClient client(cluster, 0);
  auto fh = client.create("/f");
  ASSERT_TRUE(fh.ok());
  const auto fid = cluster.mds().lookup("/f")->file_id;
  EXPECT_FALSE(client.write(*fh, 0, MakePattern(1, 0, 4 * KiB)).ok());

  auto& unit = cluster.lock_unit(fid, 0);
  EXPECT_EQ(unit.holder, 0u);
  EXPECT_GT(unit.free, 0.0) << "the failed op's hold time must be charged";
  EXPECT_LE(unit.free, client.now())
      << "unit.free must not outlive the failed op";

  // The next acquisition must find the unit free at (or before) the
  // current time: a leaked hold would surface as a lock-wait sample even
  // for the same client re-acquiring its own unit.
  EXPECT_FALSE(client.write(*fh, 0, MakePattern(2, 0, 4 * KiB)).ok());
  EXPECT_LE(cluster.lock_unit(fid, 0).free, client.now());
  EXPECT_EQ(reg.histogram("pfs.lock_wait_s", obs::LatencyBuckets()).total(), 0u)
      << "no phantom hold may charge a wait";
}

// Regression: a write overlapping the readahead window must invalidate the
// overlapped suffix — the cached pages no longer match the object — while
// the untouched prefix and non-overlapping writes keep serving hits.
TEST(OssRegression, OverlappingWriteInvalidatesReadaheadWindow) {
  PfsConfig cfg = PfsConfig::PanFsLike(1);
  cfg.rmw_on_unaligned = false;  // isolate the readahead charges
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(cfg, sched);
  Oss& oss = cluster.oss(0);

  double t = oss.serve_write(1, 0, 256 * KiB, 0.0);
  t = oss.serve_read(1, 0, 64 * KiB, t);  // cold: flush + arm window [0,256K)
  const double busy_armed = oss.disk_busy_seconds();
  t = oss.serve_read(1, 16 * KiB, 16 * KiB, t);
  EXPECT_EQ(oss.disk_busy_seconds(), busy_armed) << "in-window read is a hit";

  t = oss.serve_write(1, 512 * KiB, 4 * KiB, t);  // beyond the window
  t = oss.flush(1, t);
  const double busy_disjoint = oss.disk_busy_seconds();
  t = oss.serve_read(1, 64 * KiB, 8 * KiB, t);
  EXPECT_EQ(oss.disk_busy_seconds(), busy_disjoint)
      << "a non-overlapping write must not invalidate the window";

  t = oss.serve_write(1, 16 * KiB, 4 * KiB, t);  // overlaps: shrink to [0,16K)
  t = oss.flush(1, t);
  const double busy_overlap = oss.disk_busy_seconds();
  t = oss.serve_read(1, 0, 8 * KiB, t);
  EXPECT_EQ(oss.disk_busy_seconds(), busy_overlap)
      << "the untouched prefix may keep serving hits";
  t = oss.serve_read(1, 32 * KiB, 8 * KiB, t);
  EXPECT_GT(oss.disk_busy_seconds(), busy_overlap)
      << "reading past the invalidated point must go back to disk";
}

// Regression: reading a range this server never stored (a hole in the
// stripe) must answer from the extent map without disk I/O, and a
// readahead window must clamp to the object's stored size instead of
// prefetching past EOF.
TEST(OssRegression, HoleReadsChargeNoDiskAndWindowClampsToSize) {
  // Client level: a file whose first stripe was never written.
  {
    sim::VirtualScheduler sched(1);
    PfsConfig cfg = PfsConfig::PanFsLike(2);
    PfsCluster cluster(cfg, sched);
    PfsClient client(cluster, 0);
    auto fh = *client.create("/sparse");
    Bytes data = MakePattern(0, cfg.stripe_unit, 64 * KiB);
    ASSERT_TRUE(client.write(fh, cfg.stripe_unit, data).ok());
    ASSERT_TRUE(client.fsync(fh).ok());

    const std::uint64_t fid = cluster.mds().lookup("/sparse")->file_id;
    const std::uint32_t hole_server = cluster.placement().server_for(fid, 0, 2);
    Bytes out(64 * KiB, 0xFF);
    ASSERT_TRUE(client.read(fh, 0, out).ok());
    for (auto v : out) ASSERT_EQ(v, 0u) << "holes read as zeros";
    EXPECT_EQ(cluster.oss(hole_server).disk_busy_seconds(), 0.0)
        << "the hole stripe's server must not touch its disk";
  }
  // Server level: the readahead window never extends past the stored size.
  {
    sim::VirtualScheduler sched(1);
    PfsConfig cfg = PfsConfig::PanFsLike(1);
    cfg.rmw_on_unaligned = false;
    PfsCluster cluster(cfg, sched);
    Oss& oss = cluster.oss(0);
    double t = oss.serve_write(2, 0, 100 * KiB, 0.0);
    t = oss.serve_read(2, 90 * KiB, 8 * KiB, t);  // window [90K, 100K)
    const double busy_armed = oss.disk_busy_seconds();
    t = oss.serve_read(2, 96 * KiB, 4 * KiB, t);  // inside the clamped window
    EXPECT_EQ(oss.disk_busy_seconds(), busy_armed);
    t = oss.serve_read(2, 100 * KiB, 8 * KiB, t);  // entirely past EOF: hole
    EXPECT_EQ(oss.disk_busy_seconds(), busy_armed)
        << "a read past the stored size must not charge the disk";
    t = oss.serve_read(2, 92 * KiB, 4 * KiB, t);
    EXPECT_EQ(oss.disk_busy_seconds(), busy_armed)
        << "the hole read must not have replaced the readahead window";
  }
}

// Determinism across whole simulations: identical runs give identical
// virtual finish times.
TEST(PfsDeterminism, RepeatedRunsIdentical) {
  auto run = [] {
    constexpr int kRanks = 4;
    PfsConfig cfg = PfsConfig::LustreLike(2);
    cfg.store_data = false;
    sim::VirtualScheduler sched(kRanks);
    PfsCluster cluster(cfg, sched);
    std::vector<double> finish(kRanks);
    sched.run([&](std::size_t r) {
      PfsClient client(cluster, r);
      auto fh = client.create("/f" + std::to_string(r));
      for (int i = 0; i < 50; ++i) {
        Bytes data(10000 + 1000 * r);
        client.write(*fh, static_cast<std::uint64_t>(i) * data.size(), data);
      }
      client.close(*fh);
      finish[r] = client.now();
    });
    return finish;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pdsi::pfs
