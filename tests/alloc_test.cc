// Heap allocations on the PFS client's steady-state data path.
//
// This binary replaces the global operator new with a counting one, so it
// holds only these suites: no other test sees the counters. A single-actor
// cluster that stores payloads (no obs context) is warmed up once, after
// which synchronous reads and overwriting writes must allocate nothing:
// the scheduler admission and each chunk RPC take their callables by
// reference, and the handle's cached inode spares the path lookup. A
// create storm on a sharded MDS stays within a pinned number of
// allocations per create. A timing-only dump (payloads never stored) must
// not allocate its payload.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/hdf5lite/hdf5lite.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdsi::pfs {
namespace {

TEST(SteadyStateDataPath, SyncReadsAndOverwritesAllocateNothing) {
  sim::VirtualScheduler sched(1);
  PfsConfig cfg = PfsConfig::PanFsLike(4);
  cfg.store_data = true;
  PfsCluster cluster(cfg, sched);
  PfsClient client(cluster, 0);
  // A path too long for the short-string buffer, like a PLFS dropping's:
  // looking it up per call would allocate its normalised copy.
  ASSERT_TRUE(client.mkdir("/checkpoint.plfs").ok());
  ASSERT_TRUE(client.mkdir("/checkpoint.plfs/hostdir.3").ok());
  auto fh = client.create("/checkpoint.plfs/hostdir.3/data.17");
  ASSERT_TRUE(fh.ok());
  constexpr std::uint64_t kFile = 4 * MiB;
  constexpr std::size_t kIo = 64 * KiB;
  ASSERT_TRUE(client.write(*fh, 0, MakePattern(1, 0, kFile)).ok());

  Bytes in = MakePattern(2, 0, kIo);
  Bytes out(kIo);
  // Offsets step through the file unaligned to the stripe unit, so reads
  // and writes span two servers and keep moving between lock units.
  auto pass = [&](int ops) {
    bool ok = true;
    std::uint64_t off = 0;
    for (int i = 0; i < ops; ++i) {
      off = (off + 3 * kIo + 4099) % (kFile - kIo);
      if (i % 2 == 0) {
        ok = ok && client.read(*fh, off, out).ok();
      } else {
        ok = ok && client.write(*fh, off, in).ok();
      }
    }
    return ok;
  };
  ASSERT_TRUE(pass(1000));  // warm-up: every lock unit and chunk exists
  const std::uint64_t before = g_allocations.load();
  const bool ok = pass(1000);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
}

TEST(CreateStorm, AllocatesAFewBlocksPerCreate) {
  // perfbench's create_storm: 64 clients create 48 files each in one flat
  // directory on 8 MDS shards whose partitions split past 64 files. A
  // create normalises its path once (the handle keeps that copy) and
  // the namespace stores one entry; splits find their movers by scanning
  // the source shard, not through a second index of every name.
  constexpr std::size_t kClients = 64;
  constexpr std::size_t kPerClient = 48;
  PfsConfig cfg = PfsConfig::PanFsLike(4);
  cfg.num_mds_shards = 8;
  cfg.mds_split_threshold = 64;
  cfg.store_data = false;
  sim::VirtualScheduler sched(kClients);
  PfsCluster cluster(cfg, sched);
  // Names as long as create_storm's, past the short-string buffer.
  std::vector<std::vector<std::string>> names(kClients);
  Rng rng(1);
  char buf[32];
  for (auto& list : names) {
    while (list.size() < kPerClient) {
      std::snprintf(buf, sizeof buf, "/f%016llx",
                    static_cast<unsigned long long>(rng()));
      list.emplace_back(buf);
    }
  }
  std::atomic<bool> ok{true};
  const std::uint64_t before = g_allocations.load();
  sched.run([&](std::size_t c) {
    PfsClient client(cluster, c);
    for (const std::string& name : names[c]) {
      if (!client.create(name).ok()) ok = false;
    }
  });
  const std::uint64_t allocations = g_allocations.load() - before;
  constexpr double kCreates = kClients * kPerClient;
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(cluster.smds().total_files(), kCreates);
  EXPECT_GT(cluster.smds().splits(), 40u);
  EXPECT_TRUE(cluster.smds().check_placement_invariant());
  // Measured at 3.47 (one normalised copy, one namespace node and its
  // key, plus thread, client and split set-up); a second index of every
  // name beside the namespace made this 9.86.
  EXPECT_LE(static_cast<double>(allocations) / kCreates, 4.0)
      << allocations << " allocations for " << kCreates << " creates";
}

}  // namespace
}  // namespace pdsi::pfs

namespace pdsi::hdf5lite {
namespace {

TEST(TimingOnlyDump, AllocatesLessThanItsPayload) {
  // RunDump never stores payloads, so its writes need no buffer of
  // their own: one that allocates per record allocates the payload.
  DumpSpec spec;
  spec.ranks = 8;
  spec.records_per_rank = 64;
  spec.record_bytes = 48 * KiB;
  const std::uint64_t before = g_allocated_bytes.load();
  const DumpResult r = RunDump(pfs::PfsConfig::LustreLike(4), spec, H5Options{});
  const std::uint64_t allocated = g_allocated_bytes.load() - before;
  EXPECT_EQ(r.bytes, spec.total_bytes());
  EXPECT_LT(allocated, spec.total_bytes());
}

}  // namespace
}  // namespace pdsi::hdf5lite
