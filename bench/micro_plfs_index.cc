// Microbenchmarks: PLFS index hot paths — global-index construction,
// logical-range lookup, pattern compression and record serialisation. The
// SC09 follow-up work motivates these: index handling dominates PLFS
// restart at scale.
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "pdsi/plfs/index.h"

using namespace pdsi::plfs;
using pdsi::bench::DoNotOptimize;
using pdsi::bench::TimeLoop;

namespace {

IndexEntry StridedEntry(std::uint64_t k, std::uint32_t ranks, std::uint64_t record,
                        std::uint32_t rank) {
  IndexEntry e;
  e.logical = (k * ranks + rank) * record;
  e.length = record;
  e.physical = k * record;
  e.rank = rank;
  e.sequence = k * ranks + rank;
  return e;
}

}  // namespace

int main() {
  for (std::uint64_t entries : {1u << 10, 1u << 13, 1u << 16}) {
    TimeLoop(
        "GlobalIndexInsertStrided/" + std::to_string(entries),
        [&] {
          GlobalIndex::Builder b;
          for (std::uint64_t k = 0; k < entries; ++k) {
            b.add(StridedEntry(k / 8, 8, 47 * 1024, k % 8), k % 8);
          }
          DoNotOptimize(std::move(b).build().size());
        },
        entries);
  }

  GlobalIndex::Builder b;
  for (std::uint64_t k = 0; k < (1 << 16); ++k) {
    b.add(StridedEntry(k / 8, 8, 47 * 1024, k % 8), k % 8);
  }
  const GlobalIndex g = std::move(b).build();
  std::uint64_t pos = 0;
  TimeLoop("GlobalIndexLookup", [&] {
    pos = (pos + 2654435761ULL) % (g.size() - 256 * 1024);
    DoNotOptimize(g.lookup(pos, 256 * 1024));
  });

  for (bool enabled : {false, true}) {
    TimeLoop(
        std::string("PatternCompressor/") + (enabled ? "1" : "0"),
        [&] {
          PatternCompressor c(enabled);
          for (std::uint64_t k = 0; k < 4096; ++k) c.add(StridedEntry(k, 8, 47 * 1024, 3));
          c.finish();
          DoNotOptimize(c.take());
        },
        4096);
  }

  std::vector<IndexEntry> records;
  for (std::uint64_t k = 0; k < 4096; ++k) records.push_back(StridedEntry(k, 8, 47 * 1024, 1));
  TimeLoop(
      "SerializeEntries",
      [&] {
        auto raw = SerializeEntries(records);
        DoNotOptimize(DeserializeEntries(raw));
      },
      records.size());
  return 0;
}
