// Extension — data placement strategy comparison (§4.2.3 "Parallel
// Layout"; Molina-Estolano's simulator study).
//
// Paper: trace-driven simulation compared the placement strategies of
// Ceph (pseudo-random hashing), PanFS (per-file RAID groups) and PVFS
// (round-robin striping) under different workloads, to improve
// workload-specific placement and load balancing. Here the same three
// strategies run identical workloads on the simulated substrate and we
// report completion time plus per-server load imbalance.
#include <iostream>
#include <algorithm>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

using namespace pdsi;

namespace {

struct RunStats {
  double seconds;
  double imbalance;  ///< max/mean per-server disk busy time
};

template <typename Body>
RunStats RunWorkload(std::unique_ptr<pfs::PlacementStrategy> placement,
                     std::uint32_t clients, Body body) {
  pfs::PfsConfig cfg = pfs::PfsConfig::PvfsLike(8);
  cfg.store_data = false;
  sim::VirtualScheduler sched(clients);
  pfs::PfsCluster cluster(cfg, sched, std::move(placement));
  const double finish = sched.run([&](std::size_t c) {
    pfs::PfsClient client(cluster, c);
    body(client, static_cast<std::uint32_t>(c));
  });

  OnlineStats busy;
  double max_busy = 0.0;
  for (std::uint32_t s = 0; s < cluster.num_oss(); ++s) {
    const double b = cluster.oss(s).disk_busy_seconds();
    busy.add(b);
    max_busy = std::max(max_busy, b);
  }
  return {finish, busy.mean() > 0 ? max_busy / busy.mean() : 1.0};
}

}  // namespace

int main() {
  bench::Header("Placement strategies: round-robin (PVFS) vs hashed (Ceph) "
                "vs RAID-group (PanFS)",
                "strategy choice shifts load balance and completion time "
                "per workload");

  struct Strategy {
    const char* name;
    std::unique_ptr<pfs::PlacementStrategy> (*make)();
  };
  const auto raid3 = [] { return pfs::MakeRaidGroupPlacement(3); };
  const std::vector<Strategy> strategies = {
      {"round-robin (PVFS)", pfs::MakeRoundRobinPlacement},
      {"hashed (Ceph/CRUSH)", pfs::MakeHashedPlacement},
      {"raid-group(3) (PanFS)", +raid3},
  };

  {
    PrintBanner(std::cout, "one big shared checkpoint (16 clients, N-1 segmented)");
    Table t({"strategy", "completion", "disk imbalance (max/mean)"});
    for (const auto& s : strategies) {
      auto r = RunWorkload(s.make(), 16, [](pfs::PfsClient& client, std::uint32_t c) {
        pfs::FileHandle fh;
        if (c == 0) {
          fh = *client.create("/big");
        } else {
          while (true) {
            auto open = client.open("/big");
            if (open.ok()) {
              fh = *open;
              break;
            }
          }
        }
        Bytes chunk(1 * MiB);
        for (int k = 0; k < 32; ++k) {
          client.write(fh, (static_cast<std::uint64_t>(c) * 32 + k) * chunk.size(),
                       chunk);
        }
        client.close(fh);
      });
      t.row({s.name, FormatDuration(r.seconds), FormatDouble(r.imbalance, 2)});
    }
    t.print(std::cout);
  }

  {
    PrintBanner(std::cout, "many small files (16 clients x 64 files x 256 KiB)");
    Table t({"strategy", "completion", "disk imbalance (max/mean)"});
    for (const auto& s : strategies) {
      auto r = RunWorkload(s.make(), 16, [](pfs::PfsClient& client, std::uint32_t c) {
        Bytes chunk(256 * KiB);
        for (int f = 0; f < 64; ++f) {
          auto fh = client.create("/small." + std::to_string(c) + "." +
                                  std::to_string(f));
          client.write(*fh, 0, chunk);
          client.close(*fh);
        }
      });
      t.row({s.name, FormatDuration(r.seconds), FormatDouble(r.imbalance, 2)});
    }
    t.print(std::cout);
  }

  {
    PrintBanner(std::cout, "skewed file sizes (few huge, many tiny)");
    Table t({"strategy", "completion", "disk imbalance (max/mean)"});
    for (const auto& s : strategies) {
      auto r = RunWorkload(s.make(), 16, [](pfs::PfsClient& client, std::uint32_t c) {
        if (c < 2) {
          auto fh = client.create("/huge." + std::to_string(c));
          Bytes chunk(1 * MiB);
          for (int k = 0; k < 96; ++k) {
            client.write(*fh, static_cast<std::uint64_t>(k) * chunk.size(), chunk);
          }
          client.close(*fh);
        } else {
          Bytes chunk(128 * KiB);
          for (int f = 0; f < 32; ++f) {
            auto fh = client.create("/tiny." + std::to_string(c) + "." +
                                    std::to_string(f));
            client.write(*fh, 0, chunk);
            client.close(*fh);
          }
        }
      });
      t.row({s.name, FormatDuration(r.seconds), FormatDouble(r.imbalance, 2)});
    }
    t.print(std::cout);
  }
  bench::Note("shape check: round-robin balances the single big file "
              "perfectly; RAID grouping concentrates it on 3 servers; "
              "hashing wins nothing on one file but balances many files "
              "without coordination.");
  return 0;
}
