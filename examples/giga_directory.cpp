// GIGA+ in action: a create storm into one directory.
//
// 32 client threads create 100k files in a single directory whose
// namespace is sharded over 16 metadata servers (pfs::ShardedMds). Watch
// the directory split itself, clients correct their stale partition maps
// lazily, and throughput scale with servers — then verify every file is
// placed exactly where the final bitmap says it should be, and that a
// cold client joining afterwards finds them all.
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

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
  std::vector<std::size_t> actors;
  for (std::size_t a = 0; a <= kClients; ++a) actors.push_back(a);
  sim::VirtualBarrier barrier(sched, actors);
  std::vector<std::thread> threads;
  std::mutex mu;
  double finish = 0.0;

  std::cout << "creating " << kClients * kPerClient << " files in one "
            << "directory over " << kServers << " metadata servers...\n";
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      pfs::PfsClient client(cluster, c);
      for (int i = 0; i < kPerClient; ++i) {
        client.create("/file." + std::to_string(c) + "." + std::to_string(i));
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        finish = std::max(finish, client.now());
      }
      barrier.arrive(c);
      sched.finish(c);
    });
  }
  barrier.arrive(kClients);
  for (auto& t : threads) t.join();

  const double total = kClients * kPerClient;
  const std::uint64_t storm_bounces = bounces.value();
  const pfs::ShardedMds& smds = cluster.smds();
  std::cout << "done in " << FormatDuration(finish) << " of virtual time: "
            << FormatCount(total / finish) << " creates/s\n";
  std::cout << "directory grew to " << smds.splits() + 1 << " partitions via "
            << smds.splits() << " splits\n";
  std::cout << "client addressing corrections: " << storm_bounces << " ("
            << FormatDouble(storm_bounces / total, 5) << " per create — stale "
            << "caches are nearly free)\n";

  const bool placed = smds.check_placement_invariant();
  std::cout << "placement invariant (every entry where the bitmap says): "
            << (placed ? "HOLDS" : "VIOLATED") << "\n";

  // Spot-check lookups through a fresh (fully stale) client.
  pfs::PfsClient fresh(cluster, kClients);
  int found = 0;
  for (int i = 0; i < 1000; ++i) {
    found += fresh.stat("/file." + std::to_string(i % kClients) + "." +
                        std::to_string(i))
                 .ok();
  }
  sched.finish(kClients);
  std::cout << "fresh-client lookups: " << found << "/1000 found, "
            << bounces.value() - storm_bounces << " addressing corrections\n";
  return placed && found == 1000 ? 0 : 1;
}
