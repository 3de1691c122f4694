// PLFS public facade: the operations a FUSE mount or MPI-IO ADIO driver
// would expose, phrased as a library. See writer.h / reader.h for the
// write and read paths; this header adds whole-file utilities and a
// convenience wrapper for single-backend (non-simulated) use.
#pragma once

#include <memory>
#include <string>

#include "pdsi/common/result.h"
#include "pdsi/plfs/backend.h"
#include "pdsi/plfs/container.h"
#include "pdsi/plfs/options.h"
#include "pdsi/plfs/reader.h"
#include "pdsi/plfs/writer.h"

namespace pdsi::plfs {

/// File size without reading data: prefers the meta/<size>.<rank> hints
/// dropped at close; falls back to a full index merge for containers whose
/// writers never closed cleanly.
Result<std::uint64_t> StatSize(Backend& backend, const std::string& path);

/// Materialises the logical file into a flat (non-container) backend file
/// at `dest`, e.g. for hand-off to tools that cannot read containers.
/// Copies in index order with a bounded staging buffer.
Status Flatten(Backend& backend, const std::string& path, const std::string& dest,
               const Options& options = {});

/// Compacts the container's N raw index droppings into a single sorted,
/// pattern-compressed `index.flat` dropping that later opens load instead
/// of re-merging (see flat_index.h). Runs the raw merge itself, so a
/// pre-existing flat dropping is rebuilt, never fed forward. Refuses
/// (Errc::io_error) if any dropping was unreadable or torn — a degraded
/// view must not be frozen as the container's truth.
Status FlattenIndex(Backend& backend, const std::string& path,
                    const Options& options = {});

/// Removes a container (or reports Errc::invalid for non-containers).
Status Unlink(Backend& backend, const std::string& path);

/// Convenience wrapper owning a backend, options, and the shared write
/// clock — the shape examples and tests want when every rank shares one
/// address space.
class Plfs {
 public:
  explicit Plfs(std::unique_ptr<Backend> backend, Options options = {})
      : backend_(std::move(backend)), options_(options) {}

  Backend& backend() { return *backend_; }
  const Options& options() const { return options_; }

  Result<std::unique_ptr<Writer>> open_write(const std::string& path,
                                             std::uint32_t rank) {
    return Writer::Open(*backend_, path, rank, options_, clock_);
  }
  Result<std::unique_ptr<Reader>> open_read(const std::string& path) {
    return Reader::Open(*backend_, path, options_);
  }
  Result<std::uint64_t> stat_size(const std::string& path) {
    return StatSize(*backend_, path);
  }
  Status flatten(const std::string& path, const std::string& dest) {
    return Flatten(*backend_, path, dest, options_);
  }
  Status flatten_index(const std::string& path) {
    return FlattenIndex(*backend_, path, options_);
  }
  Status unlink(const std::string& path) { return Unlink(*backend_, path); }
  Result<bool> is_container(const std::string& path) {
    return IsContainer(*backend_, path);
  }

 private:
  std::unique_ptr<Backend> backend_;
  Options options_;
  WriteClock clock_{1};
};

}  // namespace pdsi::plfs
