// Microbenchmarks: GIGA+ client addressing — the per-operation cost every
// file create/lookup pays (hashing the name, walking the bitmap).
#include <string>

#include "bench_util.h"
#include "pdsi/giga/giga.h"

using namespace pdsi::giga;
using pdsi::bench::DoNotOptimize;
using pdsi::bench::TimeLoop;

int main() {
  std::uint64_t i = 0;
  TimeLoop("HashName", [&] {
    DoNotOptimize(HashName("checkpoint.file." + std::to_string(i++)));
  });

  // A directory grown to `partitions` via in-order splits.
  for (std::uint32_t partitions : {8u, 64u, 1024u, 65536u}) {
    Bitmap b;
    for (std::uint32_t p = 1; p < partitions; ++p) b.set(p);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    TimeLoop("BitmapPartitionFor/" + std::to_string(partitions), [&] {
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      DoNotOptimize(b.partition_for(h));
    });
  }

  Bitmap big;
  for (std::uint32_t p = 0; p < 4096; p += 3) big.set(p);
  TimeLoop("BitmapMerge", [&] {
    Bitmap fresh;
    fresh.merge(big);
    DoNotOptimize(fresh.highest());
  });
  return 0;
}
