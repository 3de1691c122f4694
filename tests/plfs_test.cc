// PLFS core tests: index record serialisation, pattern compression, the
// global index (newest-wins shadowing, against an interval-map
// reference), and end-to-end container write/read verification over the
// in-memory and POSIX backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/pfs/sparse_buffer.h"
#include "pdsi/plfs/flat_index.h"
#include "pdsi/plfs/index_cache.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/plfs.h"

namespace pdsi::plfs {
namespace {

TEST(IndexEntry, SerializeRoundTrip) {
  IndexEntry e;
  e.logical = 0x123456789abcULL;
  e.length = 47 * KiB;
  e.physical = 99;
  e.stride = 12345678;
  e.count = 42;
  e.rank = 7;
  e.sequence = 1ULL << 40;
  Bytes buf(kRawEntrySize);
  SerializeEntry(e, buf);
  const IndexEntry d = DeserializeEntry(buf);
  EXPECT_EQ(d.logical, e.logical);
  EXPECT_EQ(d.length, e.length);
  EXPECT_EQ(d.physical, e.physical);
  EXPECT_EQ(d.stride, e.stride);
  EXPECT_EQ(d.count, e.count);
  EXPECT_EQ(d.rank, e.rank);
  EXPECT_EQ(d.sequence, e.sequence);
}

// Index droppings are read back by later runs, so their byte layout is
// pinned: fields in declaration order, each in the host's little-endian
// byte order.
TEST(IndexEntry, SerializedRecordIsGolden) {
  IndexEntry e;
  e.logical = 0x1122334455;
  e.length = 0xbc00;  // 47 KiB
  e.physical = 0x63;
  e.stride = 0xbc614e;
  e.count = 42;
  e.rank = 7;
  e.sequence = 1ULL << 40;
  const char expect[] =
      "\x55\x44\x33\x22\x11\x00\x00\x00"  // logical  0x1122334455
      "\x00\xbc\x00\x00\x00\x00\x00\x00"  // length   0xbc00
      "\x63\x00\x00\x00\x00\x00\x00\x00"  // physical 0x63
      "\x4e\x61\xbc\x00\x00\x00\x00\x00"  // stride   0xbc614e
      "\x2a\x00\x00\x00"                  // count    42 (u32)
      "\x07\x00\x00\x00"                  // rank     7 (u32)
      "\x00\x00\x00\x00\x00\x01\x00\x00"; // sequence 1 << 40
  static_assert(sizeof(expect) - 1 == kRawEntrySize);
  Bytes buf(kRawEntrySize);
  SerializeEntry(e, buf);
  EXPECT_EQ(buf, Bytes(expect, expect + kRawEntrySize));
}

TEST(IndexEntry, BatchSerializeRejectsShortBuffer) {
  IndexEntry e;
  Bytes small(kRawEntrySize - 1);
  EXPECT_THROW(SerializeEntry(e, small), std::invalid_argument);
  Bytes odd(kRawEntrySize + 1);
  EXPECT_THROW(DeserializeEntries(odd), std::invalid_argument);
}

IndexEntry Plain(std::uint64_t logical, std::uint64_t length, std::uint64_t physical,
                 std::uint32_t rank = 0, std::uint64_t seq = 0) {
  IndexEntry e;
  e.logical = logical;
  e.length = length;
  e.physical = physical;
  e.rank = rank;
  e.sequence = seq;
  return e;
}

TEST(PatternCompressor, CollapsesStridedRun) {
  PatternCompressor c(true);
  // Rank 2 of 8, 100 KiB records, N-1 strided: logical step 800 KiB.
  for (int k = 0; k < 50; ++k) {
    c.add(Plain(200 * KiB + k * 800 * KiB, 100 * KiB, k * 100 * KiB, 2));
  }
  c.finish();
  auto out = c.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].count, 50u);
  EXPECT_EQ(out[0].stride, 800 * KiB);
  EXPECT_EQ(out[0].length, 100 * KiB);
  EXPECT_EQ(out[0].logical, 200 * KiB);
  EXPECT_EQ(out[0].logical_end(), 200 * KiB + 49 * 800 * KiB + 100 * KiB);
}

TEST(PatternCompressor, SequentialAppendsCompressToo) {
  PatternCompressor c(true);
  for (int k = 0; k < 20; ++k) c.add(Plain(k * 4096, 4096, k * 4096));
  c.finish();
  auto out = c.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].stride, 4096u);
  EXPECT_EQ(out[0].count, 20u);
}

TEST(PatternCompressor, BreaksOnShapeChange) {
  PatternCompressor c(true);
  c.add(Plain(0, 100, 0));
  c.add(Plain(1000, 100, 100));
  c.add(Plain(2000, 100, 200));
  c.add(Plain(3000, 999, 300));   // different length
  c.add(Plain(10000, 100, 1299)); // new run
  c.finish();
  auto out = c.take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].count, 3u);
  EXPECT_EQ(out[1].count, 1u);
  EXPECT_EQ(out[2].count, 1u);
}

TEST(PatternCompressor, DisabledPassesThrough) {
  PatternCompressor c(false);
  for (int k = 0; k < 10; ++k) c.add(Plain(k * 1000, 100, k * 100));
  c.finish();
  EXPECT_EQ(c.take().size(), 10u);
}

TEST(GlobalIndex, SimpleLookupAndHoles) {
  GlobalIndex::Builder b;
  b.add(Plain(100, 50, 0), 0);
  b.add(Plain(200, 50, 50), 1);
  const GlobalIndex g = std::move(b).build();
  EXPECT_EQ(g.size(), 250u);

  auto segs = g.lookup(0, 250);
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[0].dropping, GlobalIndex::kHole);
  EXPECT_EQ(segs[0].length, 100u);
  EXPECT_EQ(segs[1].dropping, 0u);
  EXPECT_EQ(segs[1].physical, 0u);
  EXPECT_EQ(segs[2].dropping, GlobalIndex::kHole);
  EXPECT_EQ(segs[3].dropping, 1u);
}

TEST(GlobalIndex, PartialOverlapKeepsTailPhysicalOffsets) {
  GlobalIndex::Builder b;
  b.add(Plain(0, 100, 0, 0, 1), 0);
  b.add(Plain(40, 20, 500, 1, 2), 1);  // newer write punches the middle
  const GlobalIndex g = std::move(b).build();
  auto segs = g.lookup(0, 100);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].dropping, 0u);
  EXPECT_EQ(segs[0].length, 40u);
  EXPECT_EQ(segs[0].physical, 0u);
  EXPECT_EQ(segs[1].dropping, 1u);
  EXPECT_EQ(segs[1].physical, 500u);
  EXPECT_EQ(segs[2].dropping, 0u);
  EXPECT_EQ(segs[2].length, 40u);
  EXPECT_EQ(segs[2].physical, 60u);  // tail resumes at the right log offset
}

TEST(GlobalIndex, NewerSpansSwallowOlder) {
  GlobalIndex::Builder b;
  for (int k = 0; k < 10; ++k) b.add(Plain(k * 10, 10, k * 10, 0, k), 0);
  b.add(Plain(0, 100, 0, 1, 1000), 1);
  const GlobalIndex g = std::move(b).build();
  auto segs = g.lookup(0, 100);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].dropping, 1u);
}

TEST(GlobalIndex, PatternEntryExpands) {
  GlobalIndex::Builder b;
  IndexEntry e = Plain(0, 10, 0);
  e.stride = 100;
  e.count = 5;
  b.add(e, 3);
  const GlobalIndex g = std::move(b).build();
  EXPECT_EQ(g.size(), 410u);
  EXPECT_EQ(g.segment_count(), 5u);
  auto segs = g.lookup(200, 10);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].physical, 20u);
}

// Property sweep: random interleaved writes from several "ranks" against a
// SparseBuffer oracle applied in the same sequence order.
class GlobalIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobalIndexProperty, MatchesLinearOracle) {
  Rng rng(GetParam());
  GlobalIndex::Builder builder;
  pfs::SparseBuffer oracle;
  std::vector<Bytes> logs(4);

  for (int op = 0; op < 300; ++op) {
    const std::uint32_t rank = static_cast<std::uint32_t>(rng.below(4));
    const std::uint64_t off = rng.below(5000);
    const std::uint64_t len = 1 + rng.below(400);
    Bytes payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));

    IndexEntry e = Plain(off, len, logs[rank].size(), rank,
                         static_cast<std::uint64_t>(op));
    logs[rank].insert(logs[rank].end(), payload.begin(), payload.end());
    builder.add(e, rank);
    oracle.write(off, payload);
  }

  const GlobalIndex g = std::move(builder).build();
  EXPECT_EQ(g.size(), oracle.size());
  // Reconstruct the file through the index and compare byte-for-byte.
  Bytes expect(oracle.size());
  oracle.read(0, expect);
  Bytes got(g.size(), 0);
  for (const auto& seg : g.lookup(0, g.size())) {
    if (seg.dropping == GlobalIndex::kHole) continue;
    std::copy_n(logs[seg.dropping].begin() + static_cast<long>(seg.physical),
                seg.length, got.begin() + static_cast<long>(seg.logical));
  }
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The interval-map index GlobalIndex replaced, kept as the reference its
// segments are checked against: every record is inserted in application
// order into a std::map keyed by logical start, trimming or splitting the
// older segments it overlaps.
class MapIndex {
 public:
  using Segment = GlobalIndex::Segment;

  void add(const IndexEntry& e, std::uint32_t dropping) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      insert(e.logical + e.stride * k, e.length, dropping,
             e.physical + static_cast<std::uint64_t>(k) * e.length);
    }
  }

  std::uint64_t size() const { return size_; }

  std::vector<Segment> lookup(std::uint64_t off, std::uint64_t len) const {
    std::vector<Segment> out;
    if (len == 0) return out;
    const std::uint64_t end = off + len;
    std::uint64_t pos = off;
    auto it = segments_.upper_bound(off);
    if (it != segments_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.length > off) it = prev;
    }
    while (pos < end) {
      if (it == segments_.end() || it->first >= end) {
        out.push_back({pos, end - pos, GlobalIndex::kHole, 0});
        break;
      }
      if (it->first > pos) {
        out.push_back({pos, it->first - pos, GlobalIndex::kHole, 0});
        pos = it->first;
      }
      const std::uint64_t send = it->first + it->second.length;
      const std::uint64_t from = std::max(pos, it->first);
      const std::uint64_t to = std::min(end, send);
      out.push_back({from, to - from, it->second.dropping,
                     it->second.physical + (from - it->first)});
      pos = to;
      ++it;
    }
    return out;
  }

  std::vector<Segment> all() const {
    std::vector<Segment> out;
    for (const auto& [start, span] : segments_) {
      out.push_back({start, span.length, span.dropping, span.physical});
    }
    return out;
  }

 private:
  struct Span {
    std::uint64_t length;
    std::uint32_t dropping;
    std::uint64_t physical;
  };

  void insert(std::uint64_t logical, std::uint64_t length, std::uint32_t dropping,
              std::uint64_t physical) {
    if (length == 0) return;
    const std::uint64_t end = logical + length;
    size_ = std::max(size_, end);
    auto it = segments_.upper_bound(logical);
    if (it != segments_.begin()) {
      auto prev = std::prev(it);
      const std::uint64_t pstart = prev->first;
      const std::uint64_t pend = pstart + prev->second.length;
      if (pend > logical) {
        const Span tail = prev->second;
        prev->second.length = logical - pstart;
        if (prev->second.length == 0) segments_.erase(prev);
        if (pend > end) {
          segments_.emplace(end, Span{pend - end, tail.dropping,
                                      tail.physical + (end - pstart)});
        }
      }
    }
    it = segments_.lower_bound(logical);
    while (it != segments_.end() && it->first < end) {
      const std::uint64_t sstart = it->first;
      const std::uint64_t send = sstart + it->second.length;
      if (send <= end) {
        it = segments_.erase(it);
      } else {
        const Span tail = it->second;
        segments_.erase(it);
        segments_.emplace(end, Span{send - end, tail.dropping,
                                    tail.physical + (end - sstart)});
        break;
      }
    }
    segments_.emplace(logical, Span{length, dropping, physical});
  }

  std::map<std::uint64_t, Span> segments_;
  std::uint64_t size_ = 0;
};

void ExpectSameSegments(const std::vector<GlobalIndex::Segment>& got,
                        const std::vector<GlobalIndex::Segment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].logical, want[i].logical) << i;
    EXPECT_EQ(got[i].length, want[i].length) << i;
    EXPECT_EQ(got[i].dropping, want[i].dropping) << i;
    EXPECT_EQ(got[i].physical, want[i].physical) << i;
  }
}

// Overlap-heavy random containers: rewrites of earlier ranges, pattern
// entries whose stride is shorter than their length (a run that shadows
// itself), zero-length records, and sequence stamps with many ties, fed
// in the reader's merge order (sequence, then position) to both indexes.
class GlobalIndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobalIndexEquivalence, MatchesTheMapIndex) {
  Rng rng(GetParam());
  const std::uint64_t span = 256 + rng.below(4096);  // small: dense overlap
  std::vector<std::pair<IndexEntry, std::uint32_t>> entries;
  const int n = 50 + static_cast<int>(rng.below(400));
  for (int i = 0; i < n; ++i) {
    IndexEntry e = Plain(rng.below(span), rng.below(6) == 0 ? 0 : 1 + rng.below(300),
                         rng.below(1 << 20), 0, rng.below(40));
    if (rng.below(3) == 0) {
      e.count = static_cast<std::uint32_t>(rng.below(12));  // 0 is empty
      e.stride = rng.below(2) == 0 ? 1 + rng.below(e.length + 1)  // overlapping
                                   : e.length + rng.below(200);
    }
    if (rng.below(4) == 0 && !entries.empty()) {
      // Rewrite an earlier entry's range exactly.
      const IndexEntry& old = entries[rng.below(entries.size())].first;
      e.logical = old.logical;
      e.length = old.length;
    }
    entries.push_back({e, static_cast<std::uint32_t>(rng.below(8))});
  }
  std::stable_sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.first.sequence < b.first.sequence;
  });

  MapIndex want;
  GlobalIndex::Builder builder;
  for (const auto& [e, dropping] : entries) {
    want.add(e, dropping);
    builder.add(e, dropping);
  }
  const GlobalIndex got = std::move(builder).build();

  EXPECT_EQ(got.size(), want.size());
  ExpectSameSegments(got.all(), want.all());
  EXPECT_EQ(got.segment_count(), want.all().size());
  for (int q = 0; q < 200; ++q) {
    const std::uint64_t off = rng.below(want.size() + 64);
    const std::uint64_t len = rng.below(want.size() + 64);
    ExpectSameSegments(got.lookup(off, len), want.lookup(off, len));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalIndexEquivalence, ::testing::Range<std::uint64_t>(1, 41));

TEST(GlobalIndex, EqualStampsResolveByPositionNotBySequence) {
  // Two writes share a sequence stamp; the one added later wins, and a
  // later-added write with a *smaller* stamp still shadows: the index
  // trusts the caller's application order and never re-sorts by stamp.
  GlobalIndex::Builder b;
  b.add(Plain(0, 100, 0, 0, 7), 0);
  b.add(Plain(50, 100, 0, 1, 7), 1);
  b.add(Plain(120, 10, 500, 2, 3), 2);
  const GlobalIndex g = std::move(b).build();
  MapIndex m;
  m.add(Plain(0, 100, 0, 0, 7), 0);
  m.add(Plain(50, 100, 0, 1, 7), 1);
  m.add(Plain(120, 10, 500, 2, 3), 2);
  ExpectSameSegments(g.all(), m.all());
  const auto segs = g.lookup(0, 150);
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[1].dropping, 1u);
  EXPECT_EQ(segs[2].dropping, 2u);
  EXPECT_EQ(segs[3].dropping, 1u);
  EXPECT_EQ(segs[3].physical, 80u);
}

// ---------------------------------------------------------------------------
// End-to-end container tests over MemBackend.

struct EndToEndCase {
  const char* name;
  Options options;
  // gtest's default printer dumps the struct's bytes, name pointer and
  // padding included, and ctest builds the test name from that print, so
  // the name would change from build to build. Print the case name.
  friend void PrintTo(const EndToEndCase& c, std::ostream* os) {
    *os << c.name;
  }
};

class PlfsEndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(PlfsEndToEnd, NTo1StridedRoundTrip) {
  Plfs fs(MakeMemBackend(), GetParam().options);
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint64_t kRecord = 4801;  // unaligned
  constexpr int kSteps = 30;

  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      auto w = fs.open_write("/ckpt", r);
      ASSERT_TRUE(w.ok()) << ErrcName(w.error());
      for (int k = 0; k < kSteps; ++k) {
        const std::uint64_t off = (static_cast<std::uint64_t>(k) * kRanks + r) * kRecord;
        ASSERT_TRUE((*w)->write(off, MakePattern(r, off, kRecord)).ok());
      }
      ASSERT_TRUE((*w)->close().ok());
    });
  }
  for (auto& t : threads) t.join();

  auto reader = fs.open_read("/ckpt");
  ASSERT_TRUE(reader.ok());
  const std::uint64_t total = kRecord * kRanks * kSteps;
  EXPECT_EQ((*reader)->size(), total);

  // Verify every byte against the writer-rank pattern.
  Bytes buf(total);
  auto n = (*reader)->read(0, buf);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, total);
  for (std::uint64_t block = 0; block < kRanks * kSteps; ++block) {
    const std::uint32_t rank = static_cast<std::uint32_t>(block % kRanks);
    const std::uint64_t off = block * kRecord;
    EXPECT_EQ(FindPatternMismatch(rank, off,
                                  std::span(buf).subspan(off, kRecord)),
              kNoMismatch)
        << GetParam().name << " block " << block;
  }

  // stat via meta hints agrees.
  auto sz = fs.stat_size("/ckpt");
  ASSERT_TRUE(sz.ok());
  EXPECT_EQ(*sz, total);
}

INSTANTIATE_TEST_SUITE_P(
    OptionMatrix, PlfsEndToEnd,
    ::testing::Values(
        EndToEndCase{"defaults", Options{}},
        EndToEndCase{"no_compression", [] {
                       Options o;
                       o.index_compression = false;
                       return o;
                     }()},
        EndToEndCase{"no_index_buffering", [] {
                       Options o;
                       o.index_buffering = false;
                       return o;
                     }()},
        EndToEndCase{"write_buffered", [] {
                       Options o;
                       o.write_buffer_bytes = 64 * KiB;
                       return o;
                     }()},
        EndToEndCase{"single_hostdir", [] {
                       Options o;
                       o.num_hostdirs = 1;
                       return o;
                     }()}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// A PFS dropping gives back its chunks' growth slack when a posix (the
// PanFsLike default) or session close flushes it: once every writer has
// closed, each data and index dropping of the container holds exactly
// its bytes, and they still read back.
TEST(PlfsCore, ClosedPfsDroppingsHoldOnlyTheirBytes) {
  sim::VirtualScheduler sched(1);
  pfs::PfsCluster cluster(pfs::PfsConfig::PanFsLike(4), sched);
  Plfs fs(MakePfsBackend(cluster, 0));
  constexpr std::uint32_t kRanks = 4;
  constexpr int kSteps = 64;
  // Records of 512-1024 B, as a restart_read container's: neither the
  // data logs nor the uncompressible index logs end on a doubling.
  Rng rng(25);
  std::vector<std::unique_ptr<Writer>> writers;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    auto w = fs.open_write("/ckpt", r);
    ASSERT_TRUE(w.ok());
    writers.push_back(std::move(*w));
  }
  std::uint64_t off = 0;
  for (int k = 0; k < kSteps; ++k) {
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      const std::uint64_t len = 512 + rng.below(513);
      ASSERT_TRUE(writers[r]->write(off, MakePattern(1, off, len)).ok());
      off += len;
    }
  }
  for (auto& w : writers) ASSERT_TRUE(w->close().ok());

  std::vector<std::string> dirs{"/ckpt"};
  int payloads = 0;
  while (!dirs.empty()) {
    const std::string dir = dirs.back();
    dirs.pop_back();
    const auto names = cluster.smds().readdir(dir);
    ASSERT_TRUE(names.ok()) << dir;
    for (const auto& name : *names) {
      const std::string path = dir + "/" + name;
      const auto node = cluster.smds().lookup(path);
      ASSERT_TRUE(node.ok()) << path;
      if (node->is_dir) {
        dirs.push_back(path);
      } else if (const auto* buf = cluster.data_for(node->file_id, false)) {
        EXPECT_EQ(buf->allocated_bytes(), buf->size()) << path;
        ++payloads;
      }
    }
  }
  EXPECT_EQ(payloads, 2 * static_cast<int>(kRanks));  // a data and an index log each

  auto reader = fs.open_read("/ckpt");
  ASSERT_TRUE(reader.ok());
  Bytes back(off);
  auto n = (*reader)->read(0, back);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, off);
  EXPECT_EQ(FindPatternMismatch(1, 0, back), kNoMismatch);
}

TEST(PlfsCore, CompressionShrinksIndexForStridedWrites) {
  auto run = [](bool compress) {
    Options o;
    o.index_compression = compress;
    Plfs fs(MakeMemBackend(), o);
    auto w = fs.open_write("/f", 0);
    std::uint64_t flushed = 0;
    {
      for (int k = 0; k < 1000; ++k) {
        Bytes data(512);
        (*w)->write(static_cast<std::uint64_t>(k) * 8192, data);
      }
      (*w)->close();
      flushed = (*w)->index_bytes_flushed();
    }
    return flushed;
  };
  const std::uint64_t compressed = run(true);
  const std::uint64_t plain = run(false);
  EXPECT_EQ(compressed, kRawEntrySize);  // one pattern record
  EXPECT_EQ(plain, 1000 * kRawEntrySize);
}

TEST(PlfsCore, OverwriteResolution) {
  Plfs fs(MakeMemBackend());
  {
    auto w0 = fs.open_write("/f", 0);
    auto w1 = fs.open_write("/f", 1);
    // Sequential interleave: rank 0 writes, then rank 1 overwrites middle.
    (*w0)->write(0, MakePattern(0, 0, 1000));
    (*w1)->write(300, MakePattern(1, 300, 200));
    (*w0)->close();
    (*w1)->close();
  }
  auto r = fs.open_read("/f");
  ASSERT_TRUE(r.ok());
  Bytes buf(1000);
  ASSERT_TRUE((*r)->read(0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(0, 0, std::span(buf).first(300)), kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(1, 300, std::span(buf).subspan(300, 200)),
            kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(0, 500, std::span(buf).subspan(500)), kNoMismatch);
}

TEST(PlfsCore, HolesReadAsZeros) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(1 * MiB, MakePattern(0, 1 * MiB, 100));
    (*w)->close();
  }
  auto r = fs.open_read("/f");
  Bytes buf(200);
  auto n = (*r)->read(1 * MiB - 100, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(buf[i], 0);
  EXPECT_EQ(FindPatternMismatch(0, 1 * MiB, std::span(buf).subspan(100)),
            kNoMismatch);
}

TEST(PlfsCore, ReadPastEofShortens) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(0, MakePattern(0, 0, 100));
    (*w)->close();
  }
  auto r = fs.open_read("/f");
  Bytes buf(1000);
  auto n = (*r)->read(50, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 50u);
  auto n2 = (*r)->read(100, buf);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST(PlfsCore, SyncMakesDataVisibleBeforeClose) {
  Plfs fs(MakeMemBackend());
  auto w = fs.open_write("/f", 0);
  (*w)->write(0, MakePattern(0, 0, 4096));
  ASSERT_TRUE((*w)->sync().ok());
  // A reader opened mid-write sees synced data.
  auto r = fs.open_read("/f");
  ASSERT_TRUE(r.ok());
  Bytes buf(4096);
  ASSERT_TRUE((*r)->read(0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(0, 0, buf), kNoMismatch);
  (*w)->close();
}

TEST(PlfsCore, ContainerDetectionAndUnlink) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(0, MakePattern(0, 0, 10));
    (*w)->close();
  }
  EXPECT_TRUE(*fs.is_container("/f"));
  // A plain file is not a container.
  auto h = fs.backend().create("/plain");
  fs.backend().close(*h);
  EXPECT_FALSE(*fs.is_container("/plain"));
  EXPECT_EQ(fs.open_read("/plain").error(), Errc::invalid);
  EXPECT_EQ(fs.unlink("/plain").error(), Errc::invalid);

  EXPECT_TRUE(fs.unlink("/f").ok());
  EXPECT_EQ(fs.open_read("/f").error(), Errc::not_found);
  EXPECT_FALSE(fs.backend().exists("/f").value_or(true));
}

TEST(PlfsCore, FlattenProducesIdenticalFlatFile) {
  Plfs fs(MakeMemBackend());
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kRecord = 1237;
  {
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      threads.emplace_back([&, r] {
        auto w = fs.open_write("/f", r);
        for (int k = 0; k < 16; ++k) {
          const std::uint64_t off = (static_cast<std::uint64_t>(k) * kRanks + r) * kRecord;
          (*w)->write(off, MakePattern(r, off, kRecord));
        }
        (*w)->close();
      });
    }
    for (auto& t : threads) t.join();
  }
  ASSERT_TRUE(fs.flatten("/f", "/flat").ok());

  auto reader = fs.open_read("/f");
  const std::uint64_t total = (*reader)->size();
  Bytes via_plfs(total);
  ASSERT_TRUE((*reader)->read(0, via_plfs).ok());

  auto h = fs.backend().open("/flat");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*fs.backend().size(*h), total);
  Bytes via_flat(total);
  ASSERT_TRUE(fs.backend().read(*h, 0, via_flat).ok());
  fs.backend().close(*h);
  EXPECT_EQ(HashBytes(via_flat), HashBytes(via_plfs));
}

TEST(PlfsCore, StatSizeFallsBackWithoutMetaHints) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(12345, MakePattern(0, 0, 55));
    (*w)->close();
  }
  // Remove the close-time hints, so stat() must merge the index.
  const std::string meta = ContainerPaths::meta_dir("/f");
  auto hints = fs.backend().readdir(meta);
  ASSERT_TRUE(hints.ok());
  ASSERT_FALSE(hints->empty());
  for (const auto& name : *hints) {
    ASSERT_TRUE(fs.backend().unlink(meta + "/" + name).ok());
  }
  auto sz = fs.stat_size("/f");
  ASSERT_TRUE(sz.ok());
  EXPECT_EQ(*sz, 12400u);
}

TEST(PlfsCore, HostdirFanoutSpreadsDroppings) {
  Options o;
  o.num_hostdirs = 4;
  Plfs fs(MakeMemBackend(), o);
  for (std::uint32_t r = 0; r < 8; ++r) {
    auto w = fs.open_write("/f", r);
    (*w)->write(r * 100, MakePattern(r, 0, 100));
    (*w)->close();
  }
  auto top = fs.backend().readdir("/f");
  ASSERT_TRUE(top.ok());
  int hostdirs = 0;
  for (const auto& name : *top) hostdirs += name.rfind("hostdir.", 0) == 0;
  EXPECT_EQ(hostdirs, 4);
  auto r = fs.open_read("/f");
  EXPECT_EQ((*r)->dropping_count(), 8u);
}

// ---------------------------------------------------------------------------
// Merge determinism, degraded reads, and writer failure bookkeeping.

// Two write epochs with independent clocks produce colliding sequence
// stamps for every record. The merge must still resolve every tie the
// same way on every open: by (sequence, dropping id, in-dropping
// position), so the lexicographically later dropping wins. Enough records
// that std::sort leaves its insertion-sort regime and an unstable
// tiebreak would actually scramble.
TEST(PlfsCore, MergeResolvesEqualSequencesDeterministically) {
  auto backend = MakeMemBackend();
  Options o;
  o.num_hostdirs = 1;         // both droppings share hostdir.0
  o.index_compression = false;  // keep all 200 entries per epoch
  constexpr int kRecords = 200;
  constexpr std::uint64_t kLen = 64;
  for (std::uint32_t rank : {0u, 1u}) {
    WriteClock epoch_clock{0};  // fresh clock: epoch 2 reuses stamps 0..199
    auto w = Writer::Open(*backend, "/f", rank, o, epoch_clock);
    ASSERT_TRUE(w.ok());
    for (int k = 0; k < kRecords; ++k) {
      const std::uint64_t off = static_cast<std::uint64_t>(k) * kLen;
      ASSERT_TRUE((*w)->write(off, MakePattern(rank, off, kLen)).ok());
    }
    ASSERT_TRUE((*w)->close().ok());
  }
  Bytes first;
  for (int open = 0; open < 2; ++open) {
    auto r = Reader::Open(*backend, "/f", o);
    ASSERT_TRUE(r.ok());
    Bytes buf(kRecords * kLen);
    ASSERT_TRUE((*r)->read(0, buf).ok());
    // index.1 sorts after index.0, so rank 1 wins every tie — everywhere.
    EXPECT_EQ(FindPatternMismatch(1, 0, buf), kNoMismatch) << "open " << open;
    if (open == 0) {
      first = buf;
    } else {
      EXPECT_EQ(first, buf);
    }
  }
}

// A data dropping shorter than its index claims must not destroy the
// bytes that did arrive: only the unread tail reads as zeros.
TEST(PlfsCore, DegradedShortReadKeepsPrefix) {
  auto backend = MakeMemBackend();
  {
    WriteClock clock{0};
    auto w = Writer::Open(*backend, "/f", 0, Options{}, clock);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->write(0, MakePattern(0, 0, 100)).ok());
    ASSERT_TRUE((*w)->close().ok());
  }
  std::string dropping;
  {
    auto r = Reader::Open(*backend, "/f");
    ASSERT_TRUE(r.ok());
    dropping = (*r)->droppings()[0];
  }
  // Truncate the dropping to 60 bytes (recreate — MemBackend cannot shrink).
  Bytes content(100);
  {
    auto h = backend->open(dropping);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(backend->read(*h, 0, content).ok());
    backend->close(*h);
  }
  ASSERT_TRUE(backend->unlink(dropping).ok());
  {
    auto h = backend->create(dropping);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(backend->write(*h, 0, std::span(content).first(60)).ok());
    backend->close(*h);
  }

  Options strict;
  auto r = Reader::Open(*backend, "/f", strict);
  ASSERT_TRUE(r.ok());
  Bytes buf(100, 0xff);
  EXPECT_EQ((*r)->read(0, buf).error(), Errc::io_error);

  Options degraded;
  degraded.degraded_reads = true;
  auto rd = Reader::Open(*backend, "/f", degraded);
  ASSERT_TRUE(rd.ok());
  Bytes dbuf(100, 0xff);
  auto n = (*rd)->read(0, dbuf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);
  EXPECT_EQ(FindPatternMismatch(0, 0, std::span(dbuf).first(60)), kNoMismatch);
  for (int i = 60; i < 100; ++i) EXPECT_EQ(dbuf[i], 0) << "byte " << i;
  EXPECT_EQ((*rd)->read_errors(), 1u);
}

// A crash mid-append can leave a partial record at the tail of an index
// dropping. The whole records before it are durable and stay readable in
// both modes; the torn dropping counts as one read error, so FlattenIndex
// still refuses to freeze the container.
TEST(PlfsCore, TornIndexTailKeepsWholeRecords) {
  auto backend = MakeMemBackend();
  Options o;
  o.num_hostdirs = 1;
  o.index_compression = false;  // one index record per write
  constexpr std::uint32_t kRecords = 4;
  constexpr std::uint64_t kLen = 64;
  for (std::uint32_t rank : {0u, 1u}) {
    WriteClock clock{0};
    auto w = Writer::Open(*backend, "/f", rank, o, clock);
    ASSERT_TRUE(w.ok());
    for (std::uint32_t k = 0; k < kRecords; ++k) {
      const std::uint64_t off = (rank * kRecords + k) * kLen;
      ASSERT_TRUE((*w)->write(off, MakePattern(rank, off, kLen)).ok());
    }
    ASSERT_TRUE((*w)->close().ok());
  }
  const std::string index1 = "/f/hostdir.0/index.1";
  {
    auto size = backend->stat_size(index1);
    ASSERT_TRUE(size.ok());
    ASSERT_EQ(*size, kRecords * kRawEntrySize);
    auto h = backend->open(index1);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(backend->write(*h, *size, Bytes(7, 0xab)).ok());
    backend->close(*h);
  }

  for (bool degraded : {false, true}) {
    Options ro = o;
    ro.degraded_reads = degraded;
    auto r = Reader::Open(*backend, "/f", ro);
    ASSERT_TRUE(r.ok()) << "degraded=" << degraded;
    EXPECT_EQ((*r)->read_errors(), 1u) << "degraded=" << degraded;
    std::uint32_t intact = 0;
    for (std::uint32_t k = 0; k < kRecords; ++k) {
      const std::uint64_t off = (kRecords + k) * kLen;
      Bytes buf(kLen);
      auto n = (*r)->read(off, buf);
      ASSERT_TRUE(n.ok()) << "degraded=" << degraded;
      intact += *n == kLen && FindPatternMismatch(1, off, buf) == kNoMismatch;
    }
    EXPECT_EQ(intact, kRecords) << "rank 1 records, degraded=" << degraded;
  }
  EXPECT_EQ(FlattenIndex(*backend, "/f", o).error(), Errc::io_error);
}

// Delegating backend that fails selected operations on demand — reaches
// writer error paths MemBackend alone cannot — and counts opens per path
// and closes.
class FailingBackend : public Backend {
 public:
  FailingBackend() : inner_(MakeMemBackend()) {}

  Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  Result<BackendHandle> create(const std::string& p) override {
    if (fail_creates) return Errc::invalid;
    return inner_->create(p);
  }
  Result<BackendHandle> open(const std::string& p) override {
    ++opens[p];
    if (!fail_open_containing.empty() &&
        p.find(fail_open_containing) != std::string::npos) {
      return Errc::io_error;
    }
    return inner_->open(p);
  }
  Status write(BackendHandle h, std::uint64_t off,
               std::span<const std::uint8_t> d) override {
    if (fail_writes) return Errc::io_error;
    return inner_->write(h, off, d);
  }
  Result<std::size_t> read(BackendHandle h, std::uint64_t off,
                           std::span<std::uint8_t> out) override {
    return inner_->read(h, off, out);
  }
  Result<std::uint64_t> size(BackendHandle h) override { return inner_->size(h); }
  Status fsync(BackendHandle h) override {
    if (fail_fsync) return Errc::io_error;
    return inner_->fsync(h);
  }
  Status close(BackendHandle h) override {
    ++closes;
    return inner_->close(h);
  }
  Result<std::vector<std::string>> readdir(const std::string& p) override {
    return inner_->readdir(p);
  }
  Status unlink(const std::string& p) override { return inner_->unlink(p); }
  Status rename(const std::string& f, const std::string& t) override {
    return inner_->rename(f, t);
  }
  Result<bool> is_dir(const std::string& p) override { return inner_->is_dir(p); }
  Result<bool> exists(const std::string& p) override { return inner_->exists(p); }

  bool fail_writes = false;
  bool fail_fsync = false;
  bool fail_creates = false;
  std::string fail_open_containing;  ///< opens of matching paths fail
  std::map<std::string, int> opens;
  int closes = 0;

 private:
  std::unique_ptr<Backend> inner_;
};

// A failed buffer flush must leave the writer as if the write never
// happened: no advanced physical_end_, no stray payload in the buffer, no
// index entry — so a retry logs the bytes exactly once.
TEST(PlfsCore, FailedBufferFlushRollsBackTheWrite) {
  FailingBackend backend;
  Options o;
  o.write_buffer_bytes = 1024;
  WriteClock clock{0};
  auto w = Writer::Open(backend, "/f", 0, o, clock);
  ASSERT_TRUE(w.ok());

  ASSERT_TRUE((*w)->write(0, MakePattern(0, 0, 600)).ok());
  EXPECT_EQ((*w)->bytes_logged(), 600u);
  EXPECT_EQ((*w)->records_written(), 1u);

  backend.fail_writes = true;  // crossing 1024 triggers the flush
  EXPECT_EQ((*w)->write(600, MakePattern(0, 600, 600)).error(), Errc::io_error);
  EXPECT_EQ((*w)->bytes_logged(), 600u);
  EXPECT_EQ((*w)->records_written(), 1u);

  backend.fail_writes = false;
  ASSERT_TRUE((*w)->write(600, MakePattern(0, 600, 600)).ok());
  EXPECT_EQ((*w)->bytes_logged(), 1200u);
  EXPECT_EQ((*w)->records_written(), 2u);
  ASSERT_TRUE((*w)->close().ok());

  auto r = Reader::Open(backend, "/f");
  ASSERT_TRUE(r.ok());
  // The log holds exactly the indexed bytes — a double-logged payload
  // would show up as a longer dropping.
  EXPECT_EQ(*backend.stat_size((*r)->droppings()[0]), 1200u);
  Bytes buf(1200);
  ASSERT_TRUE((*r)->read(0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(0, 0, buf), kNoMismatch);
}

// A Reader keeps one handle per data dropping: however many reads touch
// a dropping, it is opened at most once, and the Reader closes each
// handle it opened.
TEST(PlfsCore, ReaderOpensEachDataDroppingOnce) {
  FailingBackend backend;
  WriteClock clock{0};
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kRecord = 1000;
  constexpr std::uint64_t kSteps = 16;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    auto w = Writer::Open(backend, "/f", rank, Options{}, clock);
    ASSERT_TRUE(w.ok());
    for (std::uint64_t s = 0; s < kSteps; ++s) {
      const std::uint64_t off = (s * kRanks + rank) * kRecord;
      ASSERT_TRUE((*w)->write(off, MakePattern(rank, off, kRecord)).ok());
    }
    ASSERT_TRUE((*w)->close().ok());
  }

  auto r = Reader::Open(backend, "/f");
  ASSERT_TRUE(r.ok());
  const std::vector<std::string> data = (*r)->droppings();
  ASSERT_EQ(data.size(), kRanks);
  backend.opens.clear();
  backend.closes = 0;
  Bytes buf(700);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t off = 0; off + buf.size() <= (*r)->size(); off += 350) {
      ASSERT_TRUE((*r)->read(off, buf).ok());
      for (std::uint64_t i = 0; i < buf.size(); i += kRecord / 4) {
        const std::uint64_t at = off + i;
        const auto rank = static_cast<std::uint32_t>(at / kRecord % kRanks);
        ASSERT_EQ(FindPatternMismatch(rank, at, std::span(buf).subspan(i, 1)),
                  kNoMismatch) << "offset " << at;
      }
    }
  }
  EXPECT_EQ(backend.opens.size(), kRanks);
  for (const std::string& path : data) EXPECT_EQ(backend.opens[path], 1) << path;
  EXPECT_EQ(backend.closes, 0);
  r->reset();
  EXPECT_EQ(backend.closes, static_cast<int>(kRanks));
}

int CountSpans(obs::Tracer& tracer, std::string_view name) {
  int count = 0;
  tracer.for_each_sorted([&](const obs::EventView& ev, const std::string&) {
    count += name == ev.name;
  });
  return count;
}

// close() must trace its span on every exit path, and a meta-hint
// creation failure must be reported without masking the sync status.
TEST(PlfsCore, CloseTracesSpanWhenMetaHintFails) {
  FailingBackend backend;
  obs::Tracer tracer;
  obs::Context ctx{&tracer, nullptr};
  Options o;
  o.obs = &ctx;
  WriteClock clock{0};
  auto w = Writer::Open(backend, "/f", 0, o, clock);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE((*w)->write(0, MakePattern(0, 0, 100)).ok());
  backend.fail_creates = true;  // data is durable; only the hint fails
  EXPECT_EQ((*w)->close().error(), Errc::invalid);
  EXPECT_EQ(CountSpans(tracer, "close"), 1);
}

TEST(PlfsCore, CloseReportsSyncErrorOverMetaHintError) {
  FailingBackend backend;
  obs::Tracer tracer;
  obs::Context ctx{&tracer, nullptr};
  Options o;
  o.obs = &ctx;
  WriteClock clock{0};
  auto w = Writer::Open(backend, "/f", 0, o, clock);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE((*w)->write(0, MakePattern(0, 0, 100)).ok());
  backend.fail_fsync = true;
  backend.fail_creates = true;
  // io_error (the sync failure), not invalid (the hint failure).
  EXPECT_EQ((*w)->close().error(), Errc::io_error);
  EXPECT_EQ(CountSpans(tracer, "close"), 1);
}

// ---------------------------------------------------------------------------
// Flat index: serialisation, flatten-then-read equivalence, staleness.

TEST(FlatIndex, SerializeParseRoundTrip) {
  FlatIndex flat;
  flat.fingerprint = 0xfeedfacecafef00dULL;
  flat.logical_size = 12345;
  flat.droppings = {"hostdir.0/data.0", "hostdir.1/data.1"};
  IndexEntry e = Plain(0, 100, 0, 1, 0);
  e.stride = 200;
  e.count = 7;
  flat.entries = {e, Plain(5000, 45, 700, 0, 1)};
  const Bytes raw = SerializeFlatIndex(flat);
  auto parsed = ParseFlatIndex(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->fingerprint, flat.fingerprint);
  EXPECT_EQ(parsed->logical_size, flat.logical_size);
  EXPECT_EQ(parsed->droppings, flat.droppings);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].count, 7u);
  EXPECT_EQ(parsed->entries[1].logical, 5000u);
}

// `index.flat` images whose header claims more records than the bytes
// after it can hold. Header fields sit at byte 0 (magic), 8 (version),
// 12 (dropping count), 16 (fingerprint), 24 (entry count) and 32
// (logical size).
Bytes FlatClaimingEntries(std::uint64_t n) {  // one dropping, no entries
  FlatIndex flat;
  flat.droppings = {"hostdir.0/data.0"};
  Bytes raw = SerializeFlatIndex(flat);
  std::memcpy(raw.data() + 24, &n, sizeof(n));
  return raw;
}

Bytes FlatClaimingDroppings(std::uint32_t n) {  // the bare 40-byte header
  Bytes raw = SerializeFlatIndex(FlatIndex{});
  std::memcpy(raw.data() + 12, &n, sizeof(n));
  return raw;
}

// The flat header's byte layout, pinned like an index record's.
TEST(FlatIndex, SerializedHeaderIsGolden) {
  FlatIndex flat;
  flat.fingerprint = 0x0123456789abcdefULL;
  flat.logical_size = 0x2000;
  const char expect[] =
      "PLFSFLAT"                            // magic
      "\x01\x00\x00\x00"                  // version 1 (u32)
      "\x00\x00\x00\x00"                  // dropping count 0 (u32)
      "\xef\xcd\xab\x89\x67\x45\x23\x01"  // fingerprint
      "\x00\x00\x00\x00\x00\x00\x00\x00"  // entry count 0
      "\x00\x20\x00\x00\x00\x00\x00\x00"; // logical size 0x2000
  static_assert(sizeof(expect) - 1 == 40);
  EXPECT_EQ(SerializeFlatIndex(flat), Bytes(expect, expect + 40));
}

TEST(FlatIndex, ParseRejectsCorruption) {
  FlatIndex flat;
  flat.droppings = {"hostdir.0/data.0"};
  flat.entries = {Plain(0, 10, 0, 0, 0)};
  Bytes raw = SerializeFlatIndex(flat);
  EXPECT_FALSE(ParseFlatIndex(std::span(raw).first(raw.size() - 1)).ok());
  EXPECT_FALSE(ParseFlatIndex(std::span(raw).first(10)).ok());
  Bytes bad_magic = raw;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(ParseFlatIndex(bad_magic).ok());
  // Entry referencing a dropping beyond the table.
  FlatIndex oob = flat;
  oob.entries[0].rank = 5;
  EXPECT_FALSE(ParseFlatIndex(SerializeFlatIndex(oob)).ok());
  // Counts the bytes cannot hold: 2^60 entries of 48 bytes wrap to a
  // zero-byte body, and 2^32-1 droppings would reserve ~128 GiB.
  const Bytes huge_entries = FlatClaimingEntries(1ULL << 60);
  ASSERT_EQ(huge_entries.size(), 60u);
  EXPECT_EQ(ParseFlatIndex(huge_entries).error(), Errc::invalid);
  EXPECT_EQ(ParseFlatIndex(FlatClaimingDroppings(0xffffffffu)).error(), Errc::invalid);
}

TEST(FlatIndex, FingerprintSensitivity) {
  const std::uint64_t base =
      FingerprintDroppings({{"hostdir.0/index.0", 96}, {"hostdir.1/index.1", 48}});
  // Order-insensitive...
  EXPECT_EQ(base, FingerprintDroppings(
                      {{"hostdir.1/index.1", 48}, {"hostdir.0/index.0", 96}}));
  // ...but any size change, rename, or extra dropping misses.
  EXPECT_NE(base, FingerprintDroppings(
                      {{"hostdir.0/index.0", 144}, {"hostdir.1/index.1", 48}}));
  EXPECT_NE(base, FingerprintDroppings(
                      {{"hostdir.0/index.2", 96}, {"hostdir.1/index.1", 48}}));
  EXPECT_NE(base, FingerprintDroppings({{"hostdir.0/index.0", 96},
                                        {"hostdir.1/index.1", 48},
                                        {"hostdir.2/index.2", 48}}));
}

// Flatten a container with overwrites and an interior hole, then verify
// the flat-index open returns byte-identical content — and actually used
// the flat dropping rather than the raw merge.
TEST(PlfsFlat, FlattenIndexThenReadIsEquivalent) {
  Plfs fs(MakeMemBackend());
  {
    auto w0 = fs.open_write("/f", 0);
    auto w1 = fs.open_write("/f", 1);
    auto w2 = fs.open_write("/f", 2);
    (*w0)->write(0, MakePattern(0, 0, 1000));
    (*w1)->write(300, MakePattern(1, 300, 200));  // overwrites rank 0
    (*w2)->write(2000, MakePattern(2, 2000, 100));  // hole at [1000, 2000)
    (*w0)->close();
    (*w1)->close();
    (*w2)->close();
  }
  Bytes cold(2100);
  std::uint64_t cold_index_bytes = 0;
  {
    auto r = fs.open_read("/f");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE((*r)->read(0, cold).ok());
    cold_index_bytes = (*r)->index_bytes_read();
  }

  ASSERT_TRUE(fs.flatten_index("/f").ok());
  auto flat_size = fs.backend().stat_size("/f/index.flat");
  ASSERT_TRUE(flat_size.ok());

  auto r = fs.open_read("/f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->index_bytes_read(), *flat_size);  // loaded the flat dropping
  EXPECT_NE((*r)->index_bytes_read(), cold_index_bytes);
  EXPECT_EQ((*r)->size(), 2100u);
  Bytes via_flat(2100);
  ASSERT_TRUE((*r)->read(0, via_flat).ok());
  EXPECT_EQ(via_flat, cold);
  EXPECT_EQ(FindPatternMismatch(0, 0, std::span(via_flat).first(300)), kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(1, 300, std::span(via_flat).subspan(300, 200)),
            kNoMismatch);
  for (std::uint64_t i = 1000; i < 2000; ++i) EXPECT_EQ(via_flat[i], 0);
  EXPECT_EQ(FindPatternMismatch(2, 2000, std::span(via_flat).subspan(2000)),
            kNoMismatch);
}

// A write after the flatten changes the dropping fingerprint, so the open
// must ignore the stale flat dropping and merge the raw indexes.
TEST(PlfsFlat, StaleFlatIndexFallsBackToRawMerge) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(0, MakePattern(0, 0, 500));
    (*w)->close();
  }
  ASSERT_TRUE(fs.flatten_index("/f").ok());
  {
    auto w = fs.open_write("/f", 1);  // new dropping: fingerprint changes
    (*w)->write(100, MakePattern(1, 100, 300));
    (*w)->close();
  }
  auto r = fs.open_read("/f");
  ASSERT_TRUE(r.ok());
  Bytes buf(500);
  ASSERT_TRUE((*r)->read(0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(0, 0, std::span(buf).first(100)), kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(1, 100, std::span(buf).subspan(100, 300)),
            kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(0, 400, std::span(buf).subspan(400)), kNoMismatch);
}

TEST(PlfsFlat, CorruptFlatIndexFallsBackToRawMerge) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(0, MakePattern(0, 0, 500));
    (*w)->close();
  }
  ASSERT_TRUE(fs.flatten_index("/f").ok());
  // Junk bytes, and headers whose counts the bytes after them cannot hold.
  for (const Bytes& junk : {Bytes(64, 0x5a), FlatClaimingEntries(1ULL << 60),
                            FlatClaimingDroppings(0xffffffffu)}) {
    ASSERT_TRUE(fs.backend().unlink("/f/index.flat").ok());
    {
      auto h = fs.backend().create("/f/index.flat");
      ASSERT_TRUE(h.ok());
      ASSERT_TRUE(fs.backend().write(*h, 0, junk).ok());
      fs.backend().close(*h);
    }
    auto r = fs.open_read("/f");
    ASSERT_TRUE(r.ok());
    Bytes buf(500);
    ASSERT_TRUE((*r)->read(0, buf).ok());
    EXPECT_EQ(FindPatternMismatch(0, 0, buf), kNoMismatch);
  }
}

// Re-flattening after more writes replaces the stale flat dropping.
TEST(PlfsFlat, ReflattenPicksUpNewWrites) {
  Plfs fs(MakeMemBackend());
  {
    auto w = fs.open_write("/f", 0);
    (*w)->write(0, MakePattern(0, 0, 500));
    (*w)->close();
  }
  ASSERT_TRUE(fs.flatten_index("/f").ok());
  {
    auto w = fs.open_write("/f", 1);
    (*w)->write(0, MakePattern(1, 0, 500));
    (*w)->close();
  }
  ASSERT_TRUE(fs.flatten_index("/f").ok());
  auto flat_size = fs.backend().stat_size("/f/index.flat");
  auto r = fs.open_read("/f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->index_bytes_read(), *flat_size);
  Bytes buf(500);
  ASSERT_TRUE((*r)->read(0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(1, 0, buf), kNoMismatch);
}

// ---------------------------------------------------------------------------
// Index cache: hits, invalidation on rewrite, LRU bound.

TEST(PlfsCache, HitServesSameBytesWithoutIndexReads) {
  IndexCache cache(4);
  Options o;
  o.index_cache = &cache;
  Plfs fs(MakeMemBackend(), o);
  {
    auto w = fs.open_write("/a", 0);
    (*w)->write(0, MakePattern(0, 0, 777));
    (*w)->close();
  }
  Bytes cold(777);
  {
    auto r = fs.open_read("/a");
    ASSERT_TRUE(r.ok());
    EXPECT_GT((*r)->index_bytes_read(), 0u);
    ASSERT_TRUE((*r)->read(0, cold).ok());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  auto r = fs.open_read("/a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ((*r)->index_bytes_read(), 0u);  // no index dropping was fetched
  Bytes warm(777);
  ASSERT_TRUE((*r)->read(0, warm).ok());
  EXPECT_EQ(warm, cold);
}

TEST(PlfsCache, WriterCloseInvalidatesAndReopenSeesNewData) {
  IndexCache cache(4);
  Options o;
  o.index_cache = &cache;
  Plfs fs(MakeMemBackend(), o);
  {
    auto w = fs.open_write("/a", 0);
    (*w)->write(0, MakePattern(0, 0, 400));
    (*w)->close();
  }
  { auto r = fs.open_read("/a"); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(cache.size(), 1u);
  {
    auto w = fs.open_write("/a", 1);
    (*w)->write(100, MakePattern(1, 100, 200));
    (*w)->close();
  }
  EXPECT_EQ(cache.size(), 0u);  // close dropped the stale snapshot
  auto r = fs.open_read("/a");
  ASSERT_TRUE(r.ok());
  Bytes buf(400);
  ASSERT_TRUE((*r)->read(0, buf).ok());
  EXPECT_EQ(FindPatternMismatch(0, 0, std::span(buf).first(100)), kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(1, 100, std::span(buf).subspan(100, 200)),
            kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(0, 300, std::span(buf).subspan(300)), kNoMismatch);
}

TEST(PlfsCache, LruBoundEvictsOldestContainer) {
  IndexCache cache(2);
  Options o;
  o.index_cache = &cache;
  Plfs fs(MakeMemBackend(), o);
  for (const char* path : {"/a", "/b", "/c"}) {
    auto w = fs.open_write(path, 0);
    (*w)->write(0, MakePattern(0, 0, 100));
    (*w)->close();
    auto r = fs.open_read(path);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(cache.size(), 2u);  // "/a" evicted
  const std::uint64_t misses_before = cache.misses();
  { auto r = fs.open_read("/a"); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(cache.misses(), misses_before + 1);
  { auto r = fs.open_read("/c"); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(cache.hits(), 1u);
}

// A degraded build (unreadable index dropping) must never be cached.
TEST(PlfsCache, DegradedBuildIsNotCached) {
  IndexCache cache(4);
  FailingBackend backend;
  Options o;
  o.num_hostdirs = 1;
  {
    WriteClock clock{0};
    auto w0 = Writer::Open(backend, "/f", 0, o, clock);
    auto w1 = Writer::Open(backend, "/f", 1, o, clock);
    (*w0)->write(0, MakePattern(0, 0, 100));
    (*w1)->write(100, MakePattern(1, 100, 100));
    (*w0)->close();
    (*w1)->close();
  }
  backend.fail_open_containing = "index.1";  // rank 1's server is down
  Options degraded = o;
  degraded.degraded_reads = true;
  degraded.index_cache = &cache;
  auto r = Reader::Open(backend, "/f", degraded);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->read_errors(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// End-to-end over a real directory tree (the FUSE-deployment analogue).
TEST(PlfsPosix, RoundTripOnRealFilesystem) {
  const std::string root =
      std::filesystem::temp_directory_path() / "plfs_posix_test";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  {
    Plfs fs(MakePosixBackend(root));
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < 4; ++r) {
      threads.emplace_back([&, r] {
        auto w = fs.open_write("/ckpt", r);
        ASSERT_TRUE(w.ok()) << ErrcName(w.error());
        for (int k = 0; k < 10; ++k) {
          const std::uint64_t off = (static_cast<std::uint64_t>(k) * 4 + r) * 8191;
          ASSERT_TRUE((*w)->write(off, MakePattern(r, off, 8191)).ok());
        }
        ASSERT_TRUE((*w)->close().ok());
      });
    }
    for (auto& t : threads) t.join();

    auto reader = fs.open_read("/ckpt");
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ((*reader)->size(), 8191u * 40);
    Bytes buf(8191);
    ASSERT_TRUE((*reader)->read(8191 * 5, buf).ok());
    EXPECT_EQ(FindPatternMismatch(1, 8191 * 5, buf), kNoMismatch);

    EXPECT_TRUE(fs.unlink("/ckpt").ok());
  }
  EXPECT_TRUE(std::filesystem::is_empty(root));
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace pdsi::plfs
