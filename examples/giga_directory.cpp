// GIGA+ in action: a create storm into one directory.
//
// 32 client threads create 100k files in a single directory whose
// namespace is sharded over 16 metadata servers (pfs::ShardedMds). Watch
// the directory split itself, clients correct their stale partition maps
// lazily, and throughput scale with servers — then verify every file is
// placed exactly where the final bitmap says it should be, and that a
// cold client joining afterwards finds them all.
#include <iostream>

#include "pdsi/common/stats.h"
#include "pdsi/common/units.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/sim/virtual_time.h"

using namespace pdsi;

int main() {
  constexpr std::uint32_t kServers = 16;
  constexpr int kClients = 32;
  constexpr int kPerClient = 3200;  // ~100k files total

  pfs::PfsConfig cfg;
  cfg.num_mds_shards = kServers;
  cfg.mds_split_threshold = 2000;
  cfg.store_data = false;  // metadata only
  obs::Registry reg;
  obs::Context ctx;
  ctx.registry = &reg;
  obs::Counter& bounces = reg.counter("pfs.mds_stale_retries");

  // Actors 0..kClients-1 create; actor kClients is the cold client that
  // joins once every creator has reached the barrier.
  sim::VirtualScheduler sched(kClients + 1);
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  sim::VirtualBarrier barrier(sched);
  const pfs::ShardedMds& smds = cluster.smds();

  std::cout << "creating " << kClients * kPerClient << " files in one "
            << "directory over " << kServers << " metadata servers...\n";
  double finish = 0.0;  // the barrier instant: the last creator's end
  std::uint64_t storm_bounces = 0;
  bool placed = false;
  int found = 0;
  sched.run([&](std::size_t a) {
    if (a < kClients) {
      pfs::PfsClient client(cluster, a);
      for (int i = 0; i < kPerClient; ++i) {
        client.create("/file." + std::to_string(a) + "." + std::to_string(i));
      }
      barrier.arrive(a);
      return;
    }
    finish = barrier.arrive(a);
    storm_bounces = bounces.value();
    placed = smds.check_placement_invariant();
    // Spot-check lookups through a fresh (fully stale) client.
    pfs::PfsClient fresh(cluster, a);
    for (int i = 0; i < 1000; ++i) {
      found += fresh.stat("/file." + std::to_string(i % kClients) + "." +
                          std::to_string(i))
                   .ok();
    }
  });

  const double total = kClients * kPerClient;
  std::cout << "done in " << FormatDuration(finish) << " of virtual time: "
            << FormatCount(total / finish) << " creates/s\n";
  std::cout << "directory grew to " << smds.splits() + 1 << " partitions via "
            << smds.splits() << " splits\n";
  std::cout << "client addressing corrections: " << storm_bounces << " ("
            << FormatDouble(storm_bounces / total, 5) << " per create — stale "
            << "caches are nearly free)\n";

  std::cout << "placement invariant (every entry where the bitmap says): "
            << (placed ? "HOLDS" : "VIOLATED") << "\n";
  std::cout << "fresh-client lookups: " << found << "/1000 found, "
            << bounces.value() - storm_bounces << " addressing corrections\n";
  return placed && found == 1000 ? 0 : 1;
}
