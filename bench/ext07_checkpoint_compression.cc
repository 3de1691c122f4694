// Extension — on-the-fly checkpoint compression (§1.1 item 3, §5.6.1,
// Fig. 5's compression scenario).
//
// Measures the real Huffman codec's throughput and ratio on synthetic
// checkpoint state (SNL's student project reported ~250 MB/s block
// Huffman compression with ~2x faster decompression), then folds the
// measured ratio into the Fig. 5 utilisation model to show how much
// exascale runway compression buys.
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/failure/model.h"
#include "pdsi/huffman/huffman.h"

using namespace pdsi;

int main() {
  bench::Header("Checkpoint compression: block Huffman codec",
                "block Huffman + byte-plane delta filter; Fig. 5: better "
                "compression each year defers the utilisation wall");

  PrintBanner(std::cout, "codec ratio (64 MiB checkpoints)");
  // Codec rates are host wall clock and vary per run, so they go to
  // stderr; stdout keeps the deterministic ratios.
  Table t({"noise fraction", "ratio"});
  Table host({"noise fraction", "compress", "decompress", "decomp/comp"});
  for (double noise : {0.0, 0.05, 0.2, 0.5}) {
    const Bytes ckpt = huffman::SyntheticCheckpoint(64 * MiB, noise, 7);
    const auto c0 = std::chrono::steady_clock::now();
    const Bytes compressed = huffman::Compress(ckpt, 1 << 20, 8, true);
    const auto c1 = std::chrono::steady_clock::now();
    const Bytes back = huffman::Decompress(compressed);
    const auto c2 = std::chrono::steady_clock::now();
    if (back != ckpt) {
      std::cerr << "ROUND TRIP FAILED\n";
      return 1;
    }
    const double cs = std::chrono::duration<double>(c1 - c0).count();
    const double ds = std::chrono::duration<double>(c2 - c1).count();
    t.row({FormatDouble(noise, 2),
           FormatDouble(static_cast<double>(ckpt.size()) / compressed.size(), 2) + "x"});
    host.row({FormatDouble(noise, 2), FormatRate(ckpt.size() / cs),
              FormatRate(ckpt.size() / ds), FormatDouble(cs / ds, 2) + "x"});
  }
  t.print(std::cout);
  PrintBanner(std::cerr, "codec host throughput (wall clock)");
  host.print(std::cerr);

  PrintBanner(std::cout, "effect on the Fig. 5 utilisation wall");
  const Bytes ckpt = huffman::SyntheticCheckpoint(16 * MiB, 0.05, 7);
  const double ratio = static_cast<double>(ckpt.size()) /
                       huffman::Compress(ckpt, 1 << 20, 8, true).size();
  failure::UtilizationModelParams params;
  params.mtti.chip_doubling_months = 30.0;
  Table u({"scenario", "2014 utilisation", "50% crossing"});
  {
    failure::UtilizationModel model(params);
    u.row({"no compression",
           FormatDouble(100.0 * model.utilization(2014, failure::StorageScenario::balanced), 1) + "%",
           FormatDouble(model.year_crossing_below(0.5, failure::StorageScenario::balanced), 2)});
  }
  {
    // One-time codec ratio applied to the checkpoint volume.
    failure::UtilizationModelParams once = params;
    once.base_checkpoint_seconds /= ratio;
    failure::UtilizationModel model(once);
    u.row({"measured codec ratio (" + FormatDouble(ratio, 2) + "x), one-time",
           FormatDouble(100.0 * model.utilization(2014, failure::StorageScenario::balanced), 1) + "%",
           FormatDouble(model.year_crossing_below(0.5, failure::StorageScenario::balanced), 2)});
  }
  {
    failure::UtilizationModel model(params);
    u.row({"paper scenario: +30%/yr compression",
           FormatDouble(100.0 * model.utilization(2014, failure::StorageScenario::compression), 1) + "%",
           FormatDouble(model.year_crossing_below(0.5, failure::StorageScenario::compression), 2)});
  }
  u.print(std::cout);
  bench::Note("shape check: ratio falls as the incompressible fraction "
              "rises; a one-time ratio shifts the utilisation wall by "
              "~log2(ratio) years, while compounding yearly gains defer "
              "it indefinitely — the paper's 'problem goes away' case. "
              "(SNL's GPU implementation reached ~250 MB/s; this CPU "
              "codec is single-threaded.)");
  return 0;
}
