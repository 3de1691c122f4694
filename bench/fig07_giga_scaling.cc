// Fig. 7 — GIGA+ directory create throughput vs number of servers.
//
// Paper: GIGA+ (UCAR Metarates-style create storm into one huge
// directory) scales file-creates/sec with metadata servers because
// partitions split without synchronisation and clients correct stale
// addressing lazily; a conventional single metadata server is flat.
//
// The storm runs on the production metadata plane: pfs::PfsCluster with
// num_mds_shards = servers, driven through pfs::PfsClient, so splits,
// stale-bitmap bounces and placement are pfs::ShardedMds's. The 1-server
// row is the lone MDS (no splits, no bounces) and anchors the scaling.
//
// Shape gate (exit 1 on failure): steady-state creates/s rises with
// every server count and reaches at least N/2 times the 1-server rate at
// N servers; stale bounces stay below 0.05 per create; every create
// succeeds, the directory lists exactly the files created, and every
// file sits on the shard the final bitmap says.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/sim/virtual_time.h"

using namespace pdsi;

namespace {

constexpr int kClients = 64;
constexpr int kPerClient = 400;
constexpr double kMaxRetriesPerCreate = 0.05;

struct RunResult {
  double creates_per_second;        ///< whole run, including growth phase
  double steady_creates_per_second; ///< second half (directory fully split)
  std::uint64_t splits;
  std::uint64_t partitions;
  std::uint64_t stale_retries;
  bool ok;  ///< every create succeeded, count matches, placement holds
};

RunResult RunMetarates(std::uint32_t servers) {
  pfs::PfsConfig cfg;
  cfg.num_mds_shards = servers;
  cfg.mds_split_threshold = 800;
  cfg.mds_op_s = 200e-6;
  cfg.rpc_latency_s = 80e-6;
  cfg.store_data = false;  // pure metadata plane
  obs::Registry reg;
  obs::Context ctx;
  ctx.registry = &reg;
  sim::VirtualScheduler sched(kClients);
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  std::vector<double> halves(kClients, 0.0);  // when each client crossed its midpoint
  std::atomic<bool> ok{true};
  const double finish = sched.run([&](std::size_t c) {
    pfs::PfsClient client(cluster, c);
    for (int i = 0; i < kPerClient; ++i) {
      const std::string name =
          "/f" + std::to_string(c) + "_" + std::to_string(i);
      if (!client.create(name).ok()) ok = false;
      if (i == kPerClient / 2) halves[c] = client.now();
    }
  });
  const double half = *std::max_element(halves.begin(), halves.end());

  RunResult r;
  r.creates_per_second = kClients * kPerClient / finish;
  r.steady_creates_per_second =
      kClients * (kPerClient - kPerClient / 2 - 1) / (finish - half);
  r.splits = cluster.smds().splits();
  r.partitions = r.splits + 1;  // every split adds one partition
  r.stale_retries = reg.counter("pfs.mds_stale_retries").value();
  r.ok = ok.load() &&
         cluster.smds().total_files() == static_cast<std::uint64_t>(kClients * kPerClient) &&
         cluster.smds().check_placement_invariant();
  return r;
}

}  // namespace

int main() {
  bench::Header("Fig. 7: GIGA+ create scaling (Metarates-style storm)",
                "creates/sec grows near-linearly with servers; client "
                "addressing corrections stay rare");

  constexpr double kCreates = kClients * kPerClient;
  bench::Report t("fig07_giga_scaling",
                  {{"", "scenario"}, {"servers", "shards", bench::Fixed(0)},
                   {"creates/s", "creates_per_s", FormatCount},
                   {"steady creates/s", "steady_creates_per_s", FormatCount},
                   {"steady scaling", "scaling", bench::Fixed(2, "x")},
                   {"splits", "splits", bench::Fixed(0)},
                   {"partitions", "partitions", bench::Fixed(0)},
                   {"stale retries", "stale_retries", bench::Fixed(0)},
                   {"retries/op", "retries_per_create", bench::Fixed(4)},
                   {"verify", "verify_ok", bench::Flag("ok", "FAIL")}});
  double base = 0.0;
  double prev_scaling = 0.0;
  double max_retries_per_create = 0.0;
  bool monotonic = true;
  bool scaling_ok = true;
  bool verify_all = true;
  for (std::uint32_t servers : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto r = RunMetarates(servers);
    if (servers == 1) base = r.steady_creates_per_second;
    const double scaling = r.steady_creates_per_second / base;
    const double retries_per_create =
        static_cast<double>(r.stale_retries) / kCreates;
    monotonic = monotonic && scaling > prev_scaling;
    scaling_ok = scaling_ok && scaling >= servers / 2.0;
    prev_scaling = scaling;
    max_retries_per_create =
        std::max(max_retries_per_create, retries_per_create);
    verify_all = verify_all && r.ok;
    t.row({"metarates", servers, r.creates_per_second, r.steady_creates_per_second,
           scaling, r.splits, r.partitions, r.stale_retries, retries_per_create, r.ok});
  }
  t.print();

  const bool bounces_ok = max_retries_per_create < kMaxRetriesPerCreate;
  const bool shape_ok = monotonic && scaling_ok && bounces_ok && verify_all;
  bench::Report::Emit("fig07_giga_scaling",
                      {{"scenario", "summary"},
                       {"max_retries_per_create", max_retries_per_create},
                       {"monotonic", monotonic},
                       {"scaling_ok", scaling_ok},
                       {"bounces_ok", bounces_ok},
                       {"verify_all", verify_all}});
  bench::Note("shape check: near-linear scaling until the 64 clients "
              "saturate; retries bounded by split count, not op count.");
  if (!shape_ok) {
    std::cerr << "fig07_giga_scaling: FAILED ("
              << (!verify_all    ? "verification"
                  : !bounces_ok  ? "bounce bound"
                                 : "scaling gate")
              << ")\n";
    return 1;
  }
  return 0;
}
