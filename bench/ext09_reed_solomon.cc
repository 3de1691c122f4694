// Extension — Reed-Solomon coding for extended RAID / DiskReduce
// (Curry IPDPS'08 & PDSW'08; Fan PDSW'09).
//
// SNL: arbitrary-dimension Reed-Solomon beyond RAID-6 (their GPU hit
// hundreds of MB/s); CMU DiskReduce: replace 3x replication in DISC
// storage with erasure codes to reclaim capacity. Reports encode and
// reconstruct throughput across geometries plus the storage-overhead
// comparison that motivates DiskReduce.
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/reedsolomon/reedsolomon.h"

using namespace pdsi;
using namespace pdsi::reedsolomon;

int main() {
  bench::Header("Reed-Solomon erasure coding (extended RAID / DiskReduce)",
                "arbitrary parity counts; erasure codes reclaim the "
                "capacity 3x replication burns");

  PrintBanner(std::cout, "geometries (16 MiB of data per run)");
  // Codec rates are host wall clock and vary per run, so they go to
  // stderr; stdout and the BENCH rows keep the deterministic columns
  // (parity content fingerprint and round-trip outcome).
  bench::Report t("ext09_reed_solomon",
                  {{"k+m", ""}, {"", "k"},
                   {"tolerates", "m", bench::Fixed(0, " losses")},
                   {"", "shard_bytes"}, {"overhead", "overhead_pct", bench::Fixed(0, "%")},
                   {"", "parity_hash32"}, {"", "recon_ok"}});
  Table host({"k+m", "encode", "reconstruct(m lost)"});
  Rng rng(17);
  for (const auto& [k, m] : {std::pair<int, int>{4, 2}, {6, 3}, {10, 4},
                            {12, 2}, {17, 3}}) {
    ReedSolomon rs(k, m);
    const std::size_t shard = (16 * MiB) / k;
    std::vector<Bytes> data(k, Bytes(shard));
    for (auto& s : data) {
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
    }
    const auto e0 = std::chrono::steady_clock::now();
    auto parity = rs.encode(data);
    const auto e1 = std::chrono::steady_clock::now();

    std::vector<Bytes> shards = data;
    shards.insert(shards.end(), parity.begin(), parity.end());
    for (int i = 0; i < m; ++i) shards[i].clear();  // lose m data shards
    const auto r0 = std::chrono::steady_clock::now();
    rs.reconstruct(shards);
    const auto r1 = std::chrono::steady_clock::now();
    bool ok = true;
    for (int i = 0; i < k; ++i) ok &= shards[i] == data[i];
    if (!ok) {
      std::cerr << "RECONSTRUCTION MISMATCH\n";
      return 1;
    }
    const double enc_s = std::chrono::duration<double>(e1 - e0).count();
    const double rec_s = std::chrono::duration<double>(r1 - r0).count();
    host.row({std::to_string(k) + "+" + std::to_string(m),
              FormatRate(16.0 * MiB / enc_s), FormatRate(16.0 * MiB / rec_s)});
    std::uint64_t parity_hash = 0;
    for (const auto& p : parity) {
      parity_hash = parity_hash * 1000003 + HashBytes(p);
    }
    t.row({std::to_string(k) + "+" + std::to_string(m), k, m, shard, 100.0 * m / k,
           parity_hash & 0xffffffffu, ok});
  }
  t.print();
  PrintBanner(std::cerr, "codec host throughput (wall clock)");
  host.print(std::cerr);

  PrintBanner(std::cout, "DiskReduce: capacity to store 1 PB durably");
  Table d({"scheme", "raw capacity needed", "overhead", "tolerates"});
  d.row({"3x replication (HDFS default)", "3.00 PB", "200%", "2 losses"});
  d.row({"RS(6,3)", "1.50 PB", "50%", "3 losses"});
  d.row({"RS(10,4)", "1.40 PB", "40%", "4 losses"});
  d.row({"RS(12,2) (RAID-6-like)", "1.17 PB", "17%", "2 losses"});
  d.print(std::cout);
  bench::Note("shape check: encode cost grows with m (parity rows) and "
              "reconstruct with erasure count; erasure coding halves the "
              "raw capacity of replication at equal-or-better tolerance "
              "(the DiskReduce argument).");
  return 0;
}
