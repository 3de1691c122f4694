// Extension — PLFS small-file packing (§1.1 item 7).
//
// Paper extension list: "pack small files into a smaller number of bigger
// containers." Creating one backend file per tiny logical file hammers
// the metadata server; packing turns N creates into 2 per writer plus
// sequential log appends. Compares direct per-file creation on the
// simulated PFS against small-file containers.
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/smallfile.h"

using namespace pdsi;

namespace {

double RunDirect(std::uint32_t clients, int files_per_client,
                 std::uint64_t file_bytes) {
  pfs::PfsConfig cfg = pfs::PfsConfig::LustreLike(8);
  cfg.store_data = false;
  sim::VirtualScheduler sched(clients);
  pfs::PfsCluster cluster(cfg, sched);
  return sched.run([&](std::size_t c) {
    pfs::PfsClient client(cluster, c);
    Bytes payload(file_bytes);
    for (int f = 0; f < files_per_client; ++f) {
      auto fh = client.create("/out/f" + std::to_string(c) + "_" +
                              std::to_string(f));
      if (c == 0 && f == 0) {
        // First create fails (no /out); make it then.
      }
      if (!fh.ok()) {
        client.mkdir("/out");
        fh = client.create("/out/f" + std::to_string(c) + "_" +
                           std::to_string(f));
      }
      client.write(*fh, 0, payload);
      client.close(*fh);
    }
  });
}

double RunPacked(std::uint32_t clients, int files_per_client,
                 std::uint64_t file_bytes) {
  pfs::PfsConfig cfg = pfs::PfsConfig::LustreLike(8);
  cfg.store_data = false;
  sim::VirtualScheduler sched(clients);
  pfs::PfsCluster cluster(cfg, sched);
  plfs::WriteClock clock{1};
  return sched.run([&](std::size_t c) {
    auto backend = plfs::MakePfsBackend(cluster, c);
    auto w = plfs::SmallFileWriter::Open(*backend, "/pack",
                                         static_cast<std::uint32_t>(c), clock);
    Bytes payload(file_bytes);
    for (int f = 0; f < files_per_client; ++f) {
      (*w)->put("f" + std::to_string(c) + "_" + std::to_string(f), payload);
    }
    (*w)->close();
  });
}

}  // namespace

int main() {
  bench::Header("Small-file packing vs per-file creation",
                "packing tiny files into containers removes the per-file "
                "metadata cost (create storms become log appends)");

  constexpr std::uint32_t kClients = 16;
  Table t({"file size", "files", "direct create+write", "packed", "speedup",
           "files/s packed"});
  for (std::uint64_t size : {1 * KiB, 8 * KiB, 64 * KiB}) {
    constexpr int kPerClient = 256;
    const double direct = RunDirect(kClients, kPerClient, size);
    const double packed = RunPacked(kClients, kPerClient, size);
    const double total_files = kClients * kPerClient;
    t.row({FormatBytes(static_cast<double>(size)),
           FormatCount(total_files), FormatDuration(direct),
           FormatDuration(packed), FormatDouble(direct / packed, 1) + "x",
           FormatCount(total_files / packed)});
  }
  t.print(std::cout);
  bench::Note("shape check: speedup largest for the smallest files (pure "
              "metadata) and shrinks as data volume starts to dominate.");
  return 0;
}
