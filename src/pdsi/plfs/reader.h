// PLFS read path: discovers every rank's index dropping, merges them into
// a GlobalIndex (newest write wins), and serves logical reads by stitching
// extents out of the per-rank data logs.
//
// Restart-read fast paths (both validated by a fingerprint of the live
// index droppings, so they can never serve stale data):
//   * a flattened `index.flat` dropping (see flat_index.h) replaces the
//     N-way merge with one small read;
//   * an IndexCache (see index_cache.h) shares the merged snapshot across
//     repeated opens of the same container.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pdsi/common/result.h"
#include "pdsi/obs/obs.h"
#include "pdsi/plfs/backend.h"
#include "pdsi/plfs/index.h"
#include "pdsi/plfs/index_cache.h"
#include "pdsi/plfs/options.h"

namespace pdsi::plfs {

class Reader {
 public:
  /// Opens the container, reads every index dropping, builds the global
  /// index.
  static Result<std::unique_ptr<Reader>> Open(Backend& backend,
                                              const std::string& path,
                                              const Options& options = {});

  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads logical bytes; holes return zeros; short count at EOF.
  Result<std::size_t> read(std::uint64_t off, std::span<std::uint8_t> out);

  std::uint64_t size() const { return snap_->index.size(); }
  const GlobalIndex& index() const { return snap_->index; }

  /// Raw entries in merge order — consumed by Ninjat visualisation and
  /// the flatten tool.
  const std::vector<IndexEntry>& raw_entries() const {
    return snap_->raw_entries;
  }

  // -- Introspection --
  std::size_t dropping_count() const { return snap_->droppings.size(); }
  /// Absolute data-dropping paths by id (flatten tool, diagnostics).
  const std::vector<std::string>& droppings() const { return snap_->droppings; }
  /// Index bytes this open actually fetched (0 on a cache hit).
  std::uint64_t index_bytes_read() const { return index_bytes_read_; }
  /// Fingerprint of the index droppings the snapshot was built from.
  std::uint64_t index_fingerprint() const { return snap_->fingerprint; }
  /// Index droppings skipped (options.degraded_reads) or torn at build,
  /// plus segments zero-filled during reads (degraded_reads). A torn
  /// dropping — a partial record at its tail — keeps its whole records.
  std::uint64_t read_errors() const { return read_errors_; }

 private:
  Reader(Backend& backend, Options options);

  Status build(const std::string& path);
  /// Loads and validates the container's index.flat; nullptr on any
  /// failure (missing, corrupt, stale fingerprint) — callers fall back.
  std::shared_ptr<const IndexSnapshot> try_load_flat(
      const std::string& path, std::uint64_t fingerprint);
  Result<BackendHandle> data_handle(std::uint32_t dropping);

  Backend& backend_;
  Options options_;
  std::shared_ptr<const IndexSnapshot> snap_;
  /// Open data handles by dropping id; -1 until the dropping is first read.
  std::vector<BackendHandle> handles_;
  std::uint64_t index_bytes_read_ = 0;
  std::uint64_t read_errors_ = 0;
  obs::Counter* c_reads_ = nullptr;
  obs::Counter* c_segments_ = nullptr;
  obs::Counter* c_degraded_ = nullptr;
};

}  // namespace pdsi::plfs
