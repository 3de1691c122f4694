// Extension — the sharded MDS (pdsi::pfs::ShardedMds): what GIGA+-style
// namespace partitioning buys the metadata plane that a single metadata
// server cannot provide. Two storms, each swept over the shard count
// with the 1-shard row as the legacy-MDS anchor:
//
//   1. create_storm — a Metarates/mdtest-shaped flood of ranks creating
//      files into one flat directory. One MDS serialises every create
//      behind one service queue and one parent-directory lock; shards
//      split the hash space incrementally (partitions double past
//      mds_split_threshold, migrating entries — possibly across shards)
//      so the same directory is absorbed by N independent queues.
//   2. open_storm — files pre-created, then a wave of fresh clients
//      (cold, empty split-history caches) opens them, amortising group
//      opens over `group` ranks each (the POSIX HEC group-open
//      extension), so the effective rank count is in the thousands.
//      Cold caches address stale shards and are corrected lazily: the
//      wrong shard serves the bounce, replies with its bitmap, the
//      client merges and retries — bounces are counted and must stay
//      bounded by split history, not by operation count.
//
// Per-shard mds.s<k>.ops counters report how evenly the hash space
// lands. The sweep fails the bench (exit 1) unless create throughput
// scales monotonically with the shard count and the 8-shard row beats
// the 1-shard anchor by >= 3x.
#include <algorithm>
#include <atomic>
#include <cstdint>
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

constexpr char kBench[] = "ext19_sharded_mds";

struct Shape {
  int create_clients = 64;      ///< ranks in the create storm
  int creates_per_client = 1024;
  std::uint32_t split_threshold = 1000;
  int open_files = 4096;        ///< pre-created namespace for the open storm
  int openers = 64;             ///< cold-cache client threads
  std::uint32_t open_group = 32;  ///< ranks amortised per group open
};

pfs::PfsConfig ShardedConfig(std::uint32_t shards, const Shape& shape) {
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.num_mds_shards = shards;
  cfg.mds_split_threshold = shape.split_threshold;
  cfg.store_data = false;  // pure metadata plane
  return cfg;
}

struct ShardOps {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::string per_shard;  ///< "a/b/c/d" table cell
};

ShardOps CollectShardOps(obs::Registry& reg, std::uint32_t shards) {
  ShardOps out;
  for (std::uint32_t k = 0; k < shards; ++k) {
    const std::string key =
        shards > 1 ? "mds.s" + std::to_string(k) + ".ops" : "mds.ops";
    const std::uint64_t v = reg.counter(key).value();
    out.min = k == 0 ? v : std::min(out.min, v);
    out.max = std::max(out.max, v);
    if (k > 0) out.per_shard += "/";
    out.per_shard += std::to_string(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scenario 1: many ranks flooding one flat directory with creates.

struct StormResult {
  double makespan_s = 0.0;
  std::uint64_t ops = 0;        ///< real namespace operations
  std::uint64_t effective = 0;  ///< rank-ops after group amortisation
  std::uint64_t splits = 0;
  std::uint64_t partitions = 0;
  std::uint64_t stale_retries = 0;
  ShardOps shard_ops;
  bool ok = true;
  double opss() const { return static_cast<double>(effective) / makespan_s; }
};

StormResult RunCreateStorm(std::uint32_t shards, const Shape& shape,
                           obs::Tracer* tracer) {
  obs::Registry reg;
  obs::Context ctx;
  ctx.tracer = tracer;
  ctx.registry = &reg;
  pfs::PfsConfig cfg = ShardedConfig(shards, shape);
  const int clients = shape.create_clients;
  sim::VirtualScheduler sched(static_cast<std::size_t>(clients));
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);

  std::atomic<bool> ok{true};
  const double finish = sched.run([&](std::size_t c) {
    pfs::PfsClient client(cluster, c);
    for (int i = 0; i < shape.creates_per_client; ++i) {
      if (!client
               .create("/r" + std::to_string(c) + "_f" + std::to_string(i))
               .ok()) {
        ok = false;
      }
    }
  });

  StormResult res;
  res.ops = static_cast<std::uint64_t>(clients) *
            static_cast<std::uint64_t>(shape.creates_per_client);
  res.effective = res.ops;
  res.makespan_s = finish;
  res.splits = cluster.smds().splits();
  res.partitions = res.splits + 1;  // every split adds one partition
  res.stale_retries = reg.counter("pfs.mds_stale_retries").value();
  res.shard_ops = CollectShardOps(reg, shards);
  // At one shard the partition index is bypassed entirely (the
  // byte-identical legacy path), so count the namespace directly there.
  const std::uint64_t files =
      shards > 1 ? cluster.smds().total_files()
                 : cluster.mds().entry_count() - 1;  // minus root
  res.ok = ok.load() && res.ops == files &&
           cluster.smds().check_placement_invariant();
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 2: cold-cache clients group-opening a pre-created namespace.

StormResult RunOpenStorm(std::uint32_t shards, const Shape& shape) {
  obs::Registry reg;
  obs::Context ctx;
  ctx.registry = &reg;
  pfs::PfsConfig cfg = ShardedConfig(shards, shape);
  // Split finer than the create storm: the partitions (and with them
  // the open load) must outnumber the widest shard sweep, or trailing
  // shards sit idle.
  cfg.mds_split_threshold = std::max(
      16u, static_cast<std::uint32_t>(shape.open_files) / 32u);
  const int openers = shape.openers;
  sim::VirtualScheduler sched(static_cast<std::size_t>(openers) + 1);
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);

  sim::VirtualBarrier barrier(sched);

  double start = 0.0;
  std::uint64_t seed_bounces = 0;
  std::atomic<bool> ok{true};
  const int slice = shape.open_files / openers;
  // Actor 0 seeds the namespace (growing it through its splits), then
  // the cold openers start together at the barrier; the seeder ends
  // there, so the run's end is the last opener's.
  const double finish = sched.run([&](std::size_t actor) {
    if (actor == 0) {
      pfs::PfsClient seeder(cluster, 0);
      for (int i = 0; i < shape.open_files; ++i) {
        if (!seeder.create("/s" + std::to_string(i)).ok()) ok = false;
      }
      seed_bounces = reg.counter("pfs.mds_stale_retries").value();
      start = barrier.arrive(0);
      return;
    }
    const int o = static_cast<int>(actor) - 1;
    barrier.arrive(actor);
    // Constructed after the barrier: a genuinely cold client whose
    // bitmap knows nothing of the seeding phase's splits.
    pfs::PfsClient client(cluster, actor);
    for (int i = o * slice; i < (o + 1) * slice; ++i) {
      auto fh =
          client.open_group("/s" + std::to_string(i), shape.open_group);
      if (!fh.ok() || !client.close(*fh).ok()) ok = false;
    }
  });

  StormResult res;
  res.ops = static_cast<std::uint64_t>(openers) *
            static_cast<std::uint64_t>(slice);
  res.effective = res.ops * shape.open_group;
  res.makespan_s = finish - start;
  res.splits = cluster.smds().splits();
  res.partitions = res.splits + 1;
  res.stale_retries = reg.counter("pfs.mds_stale_retries").value() - seed_bounces;
  res.shard_ops = CollectShardOps(reg, shards);
  res.ok = ok.load() && cluster.smds().check_placement_invariant();
  return res;
}

// ---------------------------------------------------------------------------
// Sweep driver.

struct SweepOutcome {
  double anchor_opss = 0.0;
  double last_opss = 0.0;
  bool monotonic = true;
  bool all_ok = true;
};

SweepOutcome Sweep(const std::string& name, const Shape& shape,
                   const std::vector<std::uint32_t>& shard_counts,
                   const std::string& trace_path) {
  PrintBanner(std::cout, "scenario: " + name);
  // The table shows the scaling before the makespan, the BENCH row after it.
  bench::Report tbl(kBench,
                    {{"", "scenario"}, {"shards", "shards", bench::Fixed(0)}, {"", "ops"},
                     {"", "effective_rank_ops"}, {"rank-op/s", "rank_opss", FormatCount},
                     {"scaling", "", bench::Fixed(2, "x")},
                     {"makespan", "makespan_s", FormatDuration}, {"", "scaling"},
                     {"splits", "splits", bench::Fixed(0)}, {"", "partitions"},
                     {"stale retries", "stale_retries", bench::Fixed(0)},
                     {"retries/op", "", bench::Fixed(4)}, {"per-shard ops", ""},
                     {"", "shard_ops_min"}, {"", "shard_ops_max"},
                     {"verify", "verify_ok", bench::Flag("ok", "FAIL")}});
  SweepOutcome out;
  double prev = 0.0;
  for (std::uint32_t shards : shard_counts) {
    StormResult res;
    if (name == "create_storm") {
      // Trace only the widest create run: that is where the
      // split_migrate spans and per-shard service lanes live.
      const bool traced = !trace_path.empty() && shards == shard_counts.back();
      bench::BenchObs obs(traced ? trace_path : "");
      res = RunCreateStorm(shards, shape, obs.tracer());
    } else {
      res = RunOpenStorm(shards, shape);
    }
    if (shards == shard_counts.front()) out.anchor_opss = res.opss();
    out.last_opss = res.opss();
    // Virtual-time rates are exact; any dip below the previous row is a
    // real scaling inversion, modulo split-migration noise.
    if (prev > 0.0 && res.opss() < prev * 0.98) out.monotonic = false;
    prev = res.opss();
    out.all_ok = out.all_ok && res.ok;
    const double scaling = res.opss() / out.anchor_opss;
    tbl.row({name, shards, res.ops, res.effective, res.opss(), scaling, res.makespan_s,
             scaling, res.splits, res.partitions, res.stale_retries,
             static_cast<double>(res.stale_retries) / static_cast<double>(res.ops),
             res.shard_ops.per_shard, res.shard_ops.min, res.shard_ops.max, res.ok});
  }
  tbl.print();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header(
      "Sharded MDS: GIGA+ namespace partitioning vs the single metadata "
      "server (pdsi::pfs::ShardedMds)",
      "create storms into one directory are THE petascale metadata "
      "pathology; splitting the namespace incrementally over N shards "
      "scales creates/sec while stale client caches cost only a bounded "
      "trickle of lazily-corrected bounces");
  const std::string trace_path = bench::TraceFlag(argc, argv);

  const Shape shape;
  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};

  const SweepOutcome creates =
      Sweep("create_storm", shape, shard_counts, trace_path);
  const SweepOutcome opens =
      Sweep("open_storm", shape, shard_counts, "");

  const double speedup8 =
      creates.anchor_opss > 0.0 ? creates.last_opss / creates.anchor_opss : 0.0;
  const bool scaling_ok = creates.monotonic && speedup8 >= 3.0;
  const bool all_ok = creates.all_ok && opens.all_ok;
  std::cout << "create scaling at " << shard_counts.back() << " shards: "
            << FormatDouble(speedup8, 2) << "x the single-MDS anchor ("
            << (scaling_ok ? "monotonic, gate met" : "GATE FAILED") << ")\n";
  bench::Report::Emit(
      kBench,
      {{"scenario", "summary"},
       {"create_speedup8", speedup8},
       {"open_speedup8", opens.anchor_opss > 0.0 ? opens.last_opss / opens.anchor_opss : 0.0},
       {"monotonic", creates.monotonic},
       {"scaling_ok", scaling_ok},
       {"verify_all", all_ok}});

  bench::Note(
      "shape check: the 1-shard row is the legacy MDS (one service queue + "
      "one directory lock, flat as the paper laments); shards multiply both "
      "resources and the hash split keeps them balanced. Open-storm bounces "
      "stay bounded by split history — cold caches converge after one "
      "correction per partition, not one per operation.");
  if (!scaling_ok || !all_ok) {
    std::cerr << "ext19_sharded_mds: FAILED ("
              << (all_ok ? "scaling gate" : "verification") << ")\n";
    return 1;
  }
  return 0;
}
