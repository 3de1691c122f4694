// Tunables for a PLFS "mount". Each flag is an ablation axis exercised by
// bench/abl01_plfs_ablation; defaults match the hardened PLFS defaults.
#pragma once

#include <cstdint>

namespace pdsi::obs {
struct Context;
}

namespace pdsi::plfs {

class IndexCache;

struct Options {
  /// Hostdir fan-out: how many subdirectories droppings spread over.
  std::uint32_t num_hostdirs = 32;

  /// Collapse strided index runs into pattern records (§1.1 item 5).
  bool index_compression = true;

  /// Buffer index records in memory and write them at sync/close rather
  /// than one backend write per record.
  bool index_buffering = true;

  /// Write-behind data batching (§1.1 items 4/6: delayed-write batching /
  /// burst buffering): coalesce log appends into buffers of this size
  /// before hitting the backend. 0 = write through.
  std::uint64_t write_buffer_bytes = 0;

  /// Reader: when a dropping cannot be read (its server is down), report
  /// the region as a zero-filled hole and count the error instead of
  /// failing the whole read — the restart can consume what survives.
  /// Errors are surfaced via Reader::read_errors().
  bool degraded_reads = false;

  /// Reader: prefer the container's flattened `index.flat` dropping
  /// (written by FlattenIndex) over the N-way raw merge when its
  /// fingerprint still matches the live droppings; any newer raw dropping
  /// falls back to the merge. Off forces the cold merge (benchmarks).
  bool use_flat_index = true;

  /// Shared cache of merged container indexes, keyed by container path +
  /// dropping fingerprint; repeated opens — the N-reader restart storm —
  /// pay the merge once. Must outlive every Reader/Writer using it;
  /// nullptr (the default) disables caching.
  IndexCache* index_cache = nullptr;

  /// Optional tracing/metrics sink (must outlive the Writer/Reader).
  /// Timestamps come from Backend::now(), so spans are only meaningful
  /// over simulated backends; null disables instrumentation entirely.
  obs::Context* obs = nullptr;

  /// Tracer track for Reader spans (Writer uses the rank's track).
  std::uint32_t obs_track = 700;  // obs::kReaderTrackBase
};

}  // namespace pdsi::plfs
