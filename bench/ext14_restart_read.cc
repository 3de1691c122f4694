// Extension — the N-to-1 restart read problem (the paper's §index
// scalability discussion): opening a PLFS container costs an N-way index
// merge, so restart time grows with writer ranks even when the data read
// is tiny. Two mitigations measured here against the cold merge:
//
//   1. flatten/compaction — plfs::FlattenIndex resolves the merge once
//      and drops a single pattern-compressed `index.flat` into the
//      container; later opens load it instead of N raw droppings;
//   2. container index cache — repeated opens in one address space (a
//      FUSE daemon, an I/O forwarding node) share the merged snapshot,
//      paying only the fingerprint stat pass.
//
// The sweep runs ranks x records on the virtual-time PFS and reports the
// open cost of each path plus speedups.
// Uncompressed indexes model the worst case the flatten targets (the
// compression ablation itself lives in abl01).
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/flat_index.h"
#include "pdsi/plfs/index_cache.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/plfs.h"

using namespace pdsi;

namespace {

struct OpenCost {
  double seconds = 0.0;
  std::uint64_t index_bytes = 0;
  std::uint64_t check = 0;  ///< hash of the first bytes, for cross-path sanity
};

// Virtual-time cost of one Reader::Open (plus a small verification read,
// excluded from the timing).
OpenCost MeasureOpen(plfs::Backend& backend, const std::string& path,
                     const plfs::Options& options) {
  OpenCost out;
  const double t0 = backend.now();
  auto reader = plfs::Reader::Open(backend, path, options);
  out.seconds = backend.now() - t0;
  if (!reader.ok()) return out;
  out.index_bytes = (*reader)->index_bytes_read();
  Bytes head(std::min<std::uint64_t>(64 * KiB, (*reader)->size()));
  if ((*reader)->read(0, head).ok()) out.check = HashBytes(head);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Restart read: index flatten/compaction and container "
                "index cache vs the cold N-way merge",
                "PLFS's per-rank index droppings make the N-to-1 restart "
                "open scale with writer ranks; compacting or caching the "
                "merged index removes the per-open merge");
  // --trace <path>: the largest sweep row is traced (index_merge,
  // index_flatten and index_cache_hit spans over the pfs tracks).
  bench::BenchObs trace(bench::TraceFlag(argc, argv),
                        bench::ProfileFlag(argc, argv), "ext14_restart_read");

  PrintBanner(std::cout, "N-to-1 checkpoint, then restart opens: cold merge "
                         "vs index.flat vs cached snapshot (virtual time)");
  const std::vector<std::uint32_t> rank_counts = {4, 8, 16, 32};
  const std::vector<std::uint32_t> record_counts = {64, 256};
  const std::uint64_t kRec = 8 * KiB;

  bench::Report t("ext14_restart_read",
                  {{"ranks", "ranks", bench::Fixed(0)},
                   {"records", "records_per_rank", bench::Fixed(0)},
                   {"entries", "index_entries", bench::Fixed(0)},
                   {"cold open", "cold_open_s", FormatDuration}, {"", "cold_index_bytes"},
                   {"flat open", "flat_open_s", FormatDuration}, {"", "flat_index_bytes"},
                   {"cached open", "cached_open_s", FormatDuration},
                   {"flat x", "flat_speedup", bench::Fixed(1, "x")},
                   {"cached x", "cached_speedup", bench::Fixed(1, "x")}});
  const std::uint32_t trace_ranks = rank_counts.back();
  const std::uint32_t trace_records = record_counts.back();
  for (const std::uint32_t ranks : rank_counts) {
    for (const std::uint32_t records : record_counts) {
      // Fresh virtual cluster per configuration; every phase below runs
      // on client 0's clock, and only deltas are reported.
      sim::VirtualScheduler sched(1);
      pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(8);
      pfs::PfsCluster cluster(cfg, sched);
      auto backend = plfs::MakePfsBackend(cluster, 0);
      const bool traced = ranks == trace_ranks && records == trace_records;
      obs::Context* obs = traced ? trace.ctx() : nullptr;

      // Write phase: N-1 strided checkpoint, uncompressed index records —
      // ranks x records entries for the cold merge to chew through.
      plfs::WriteClock wclock{0};
      plfs::Options wopt;
      wopt.index_compression = false;
      for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        auto w = plfs::Writer::Open(*backend, "/ckpt", rank, wopt, wclock);
        for (std::uint32_t k = 0; k < records; ++k) {
          const std::uint64_t off =
              (static_cast<std::uint64_t>(k) * ranks + rank) * kRec;
          (*w)->write(off, MakePattern(rank, off, kRec));
        }
        (*w)->close();
      }

      plfs::Options cold_opt;
      cold_opt.use_flat_index = false;
      cold_opt.obs = obs;
      const OpenCost cold = MeasureOpen(*backend, "/ckpt", cold_opt);

      plfs::Options flat_opt;
      flat_opt.obs = obs;
      if (!plfs::FlattenIndex(*backend, "/ckpt", flat_opt).ok()) {
        std::cerr << "flatten failed\n";
        return 1;
      }
      const OpenCost flat = MeasureOpen(*backend, "/ckpt", flat_opt);

      plfs::IndexCache cache(8);
      plfs::Options cached_opt;
      cached_opt.index_cache = &cache;
      cached_opt.obs = obs;
      (void)MeasureOpen(*backend, "/ckpt", cached_opt);  // populate (miss)
      const OpenCost cached = MeasureOpen(*backend, "/ckpt", cached_opt);

      if (flat.check != cold.check || cached.check != cold.check ||
          cache.hits() != 1) {
        std::cerr << "restart paths disagree at ranks=" << ranks << "\n";
        return 1;
      }
      const double flat_x = cold.seconds / flat.seconds;
      const double cached_x = cold.seconds / cached.seconds;
      t.row({ranks, records, ranks * records, cold.seconds, cold.index_bytes, flat.seconds,
             flat.index_bytes, cached.seconds, flat_x, cached_x});
    }
  }
  t.print();
  bench::Note("the cold merge pays per-dropping metadata and index reads, "
              "so its cost grows with ranks; the flat index is one read of "
              "a pattern-compressed file and the cached open only restats "
              "the droppings to validate its fingerprint — both speedups "
              "widen as ranks grow");
  return 0;
}
