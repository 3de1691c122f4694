// SSD burst-buffer tier: absorb checkpoints at flash speed, drain to the
// parallel file system in the background.
//
// The PDSI report's central workload is the defensive checkpoint — the
// machine is idle until the last byte is durable (Figs. 2 & 5) — and its
// flash chapter (§4.2.6, Figs. 11/14) characterises exactly the device
// that historically fixed it: an SSD staging tier in front of the PFS.
// This class wires those pieces together. Rank writes are absorbed into a
// log on a storage::SsdModel (sequential programs, so the FTL stays out
// of the way until the device is nearly full); dirty extents queue FIFO;
// an asynchronous drain scheduler on an owned sim::EventQueue flushes
// them to a DrainTarget in large sequential drain units.
//
// Policies:
//   * Backpressure — classic watermark hysteresis over un-drained bytes
//     (dirty + in-flight). The boundaries are exact and inclusive on both
//     sides: ingest stalls when `undrained_bytes() >= high_watermark *
//     capacity` (hitting the mark exactly engages backpressure) and
//     resumes only once drains pull un-drained bytes to
//     `<= low_watermark * capacity` (reaching the low mark exactly
//     releases; one byte above it does not). The gap between the marks is
//     what prevents thrashing, and a checkpoint larger than the buffer
//     degrades to drain speed instead of deadlocking.
//   * Eviction — drained (clean) extents are dropped oldest-first when a
//     new absorb needs space; dirty data is never evicted (it is the only
//     copy). A single write larger than the staging device is rejected.
//   * Geometry — the log wraps at capacity and keeps every logical page
//     mapped, so only the FTL's spare pages absorb garbage collection;
//     storage::SsdModel rejects a device with three spare erase blocks or
//     fewer.
//
// Durability: a byte is durable on the PFS only after the drain op
// carrying it completes; flush() is the checkpoint barrier that returns
// the virtual time at which everything currently staged is durable. The
// sink callback fires exactly once per drained run, in FIFO write order,
// which is how tier::TierEngine learns which bytes the warm tier holds.
// The buffer models time and placement only; the bytes themselves live
// with its owner (the tiering engine keeps each object's payload).
//
// Threading: all methods must be externally serialised (the tiering
// engine's PLFS adapter, tier::MakeTierBackend, holds one mutex around
// every engine call); determinism then follows from the event queue's
// total order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "pdsi/bb/drain_target.h"
#include "pdsi/common/interval_set.h"
#include "pdsi/common/units.h"
#include "pdsi/obs/obs.h"
#include "pdsi/sim/event_queue.h"
#include "pdsi/storage/ssd_model.h"

namespace pdsi::bb {

struct BbParams {
  storage::SsdParams ssd;       ///< staging device (absorb + staged reads)
  double high_watermark = 0.70; ///< un-drained fraction that stalls ingest
  double low_watermark = 0.40;  ///< un-drained fraction at which it resumes
  std::uint64_t drain_unit = 64 * MiB;  ///< target bytes per drain op
};

struct BbStats {
  std::uint64_t writes = 0;
  std::uint64_t bytes_absorbed = 0;
  std::uint64_t bytes_drained = 0;
  std::uint64_t bytes_evicted = 0;
  std::uint64_t drain_ops = 0;
  std::uint64_t ingest_stalls = 0;     ///< writes that hit backpressure
  double stall_seconds = 0.0;          ///< ingest time lost to backpressure
  double absorb_seconds = 0.0;         ///< flash time charged to ingest
  double drain_busy_seconds = 0.0;     ///< drain-stream busy time
};

class BurstBuffer {
 public:
  /// Fires once per drained contiguous run, at drain completion, in FIFO
  /// write order: the moment those bytes are durable on the target.
  using DrainSink =
      std::function<void(std::uint64_t file, std::uint64_t off, std::uint64_t len)>;

  /// `obs` (optional, must outlive the buffer) traces absorb/stall spans
  /// on obs::kBbIngestTrack and drain ops on obs::kBbDrainTrack. Throws
  /// std::invalid_argument for inverted watermarks, a zero drain unit or
  /// too few spare erase blocks on the staging device.
  BurstBuffer(BbParams params, DrainTarget& target, obs::Context* obs = nullptr);

  /// Absorbs `len` bytes of `file` at `off`, arriving at caller time
  /// `now`; returns the completion time (absorb is blocking; any
  /// backpressure stall is included and recorded in stats).
  double write(std::uint64_t file, std::uint64_t off, std::uint64_t len, double now);

  /// Staged read: if [off, off+len) is fully resident, sets *hit and
  /// returns completion at flash speed; otherwise clears *hit and returns
  /// `now` (caller falls through to the backing store).
  double read(std::uint64_t file, std::uint64_t off, std::uint64_t len,
              double now, bool* hit);

  /// Checkpoint barrier: drains everything staged-but-not-durable and
  /// returns the virtual time the last byte lands on the target.
  double flush(double now);

  /// Discards all staged state for `file` (unlink). In-flight drains for
  /// it complete as no-ops (their sink is suppressed).
  void drop_file(std::uint64_t file);

  /// Advances background drains to time `t` (lets a caller model compute
  /// time passing between writes).
  void run_until(double t) { queue_.run_until(t); }

  double now() const { return queue_.now(); }
  /// Bytes whose only copy is the burst buffer (not yet handed to drain).
  std::uint64_t dirty_bytes() const { return dirty_bytes_; }
  /// Dirty plus in-flight: the quantity the watermarks govern.
  std::uint64_t undrained_bytes() const { return dirty_bytes_ + in_flight_bytes_; }
  /// All staged bytes (dirty + in-flight + clean-but-resident).
  std::uint64_t resident_bytes() const { return resident_bytes_; }
  std::uint64_t capacity_bytes() const { return params_.ssd.capacity_bytes; }

  const BbParams& params() const { return params_; }
  const BbStats& stats() const { return stats_; }
  const storage::SsdModel& ssd() const { return ssd_; }

  void set_drain_sink(DrainSink sink) { sink_ = std::move(sink); }

 private:
  struct FileState {
    RangeMap resident;   ///< readable from the staging device
    RangeMap dirty;      ///< written, not yet picked up by a drain op
    RangeMap in_flight;  ///< inside a drain op that has not completed
  };

  /// One absorbed write, queued for FIFO drain.
  struct LogEntry {
    std::uint64_t file;
    std::uint64_t off;
    std::uint64_t len;
    double available_at;  ///< absorb completion; drain may not start earlier
  };

  struct Run {
    std::uint64_t file;
    std::uint64_t off;
    std::uint64_t len;
  };

  /// Sub-ranges of [s, e) present in `m`.
  static std::vector<Run> RangePieces(const RangeMap& m, std::uint64_t file,
                                      std::uint64_t s, std::uint64_t e);

  FileState& state(std::uint64_t file) { return files_[file]; }

  /// Sequential log write on the staging flash; wraps at capacity.
  double absorb_to_flash(std::uint64_t len);
  /// Flash read cost for a staged range (position folded into the log).
  double staged_read_cost(std::uint64_t off, std::uint64_t len);

  void maybe_schedule_drain(double not_before);
  void drain_step();
  void complete_drain(const std::vector<Run>& runs, std::uint64_t bytes);
  /// Evicts clean runs oldest-first until `need` more bytes fit; returns
  /// true if they now do.
  bool evict_for(std::uint64_t need);

  BbParams params_;
  DrainTarget& target_;
  sim::EventQueue queue_;
  storage::SsdModel ssd_;
  BbStats stats_;
  DrainSink sink_;
  obs::Context* ctx_;
  obs::Counter* c_absorbed_ = nullptr;
  obs::Counter* c_drained_ = nullptr;
  obs::Counter* c_evicted_ = nullptr;
  obs::Counter* c_stalls_ = nullptr;
  obs::Histogram* h_absorb_s_ = nullptr;

  std::unordered_map<std::uint64_t, FileState> files_;
  std::deque<LogEntry> drain_fifo_;
  std::deque<Run> clean_fifo_;   ///< eviction order (drain completion order)
  std::uint64_t dirty_bytes_ = 0;
  std::uint64_t in_flight_bytes_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t log_cursor_ = 0;  ///< staging-flash append position
  bool drain_active_ = false;
};

}  // namespace pdsi::bb
