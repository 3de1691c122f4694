// PLFS write path: decouples a rank's writes to the shared logical file
// into an append-only per-rank data log plus index records. This is the
// whole trick of the paper — the backend sees only N sequential streams
// regardless of how concurrent, small, strided, or unaligned the
// application's logical write pattern is.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pdsi/common/result.h"
#include "pdsi/obs/obs.h"
#include "pdsi/plfs/backend.h"
#include "pdsi/plfs/index.h"
#include "pdsi/plfs/options.h"

namespace pdsi::plfs {

/// Monotonic write-order stamp shared by all ranks of one job so that
/// overlapping writes resolve newest-wins on read.
using WriteClock = std::atomic<std::uint64_t>;

class Writer {
 public:
  /// Creates (or joins) the container at `path` and opens rank-private
  /// droppings. `clock` must outlive the writer and be shared by all
  /// ranks writing this file.
  static Result<std::unique_ptr<Writer>> Open(Backend& backend,
                                              const std::string& path,
                                              std::uint32_t rank,
                                              const Options& options,
                                              WriteClock& clock);

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Logs `data` as the content of logical range [off, off+size).
  Status write(std::uint64_t off, std::span<const std::uint8_t> data);

  /// Flushes buffered data and index records and fsyncs the droppings.
  Status sync();

  /// sync() + drop the meta size hint + close droppings. Called by the
  /// destructor if omitted (errors then ignored).
  Status close();

  // -- Introspection (ablation reporting) --
  std::uint64_t bytes_logged() const { return physical_end_; }
  std::uint64_t records_written() const { return records_; }
  std::uint64_t index_entries_flushed() const { return index_entries_flushed_; }
  std::uint64_t index_bytes_flushed() const { return index_bytes_flushed_; }

 private:
  Writer(Backend& backend, std::string path, std::uint32_t rank, Options options,
         WriteClock& clock, BackendHandle data, BackendHandle index);

  Status flush_data_buffer();
  Status flush_index();

  Backend& backend_;
  std::string path_;
  std::uint32_t rank_;
  Options options_;
  WriteClock& clock_;
  BackendHandle data_h_;
  BackendHandle index_h_;
  bool open_ = true;

  std::uint64_t physical_end_ = 0;       ///< data log length
  std::uint64_t buffer_base_ = 0;        ///< log offset of buffer start
  Bytes data_buffer_;
  PatternCompressor compressor_;
  std::vector<IndexEntry> unbuffered_;   ///< staging when !index_buffering
  std::uint64_t index_off_ = 0;
  std::uint64_t max_logical_end_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t index_entries_flushed_ = 0;
  std::uint64_t index_bytes_flushed_ = 0;

  std::uint32_t track_ = 0;  ///< tracer track (the rank's track)
  obs::Counter* c_records_ = nullptr;
  obs::Counter* c_bytes_logged_ = nullptr;
  obs::Counter* c_index_flushes_ = nullptr;
};

}  // namespace pdsi::plfs
