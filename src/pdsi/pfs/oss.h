// Object storage server: one disk + NIC + CPU behind an RPC interface.
//
// Timing methods take the caller's current virtual time and return the
// operation's completion time; they must be invoked only inside
// VirtualScheduler::atomically sections, which serialises access and
// guarantees requests arrive in nondecreasing virtual time (making the
// SimResource clocks exact FIFO queues).
//
// The server runs a write-back cache that aggregates contiguous per-object
// runs and flushes them to disk in large chunks — the mechanism that lets
// N sequential streams (PLFS logs) approach media rate while interleaved
// strided writes to one object degrade into small seek-bound I/Os.
//
// The installed fault::FaultInjector is the only thing that slows a
// server: each request asks it once, at its arrival, for the disk, NIC
// and CPU factors of the degradations that started strictly before, and
// every charge of that request uses them.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "pdsi/common/stats.h"
#include "pdsi/obs/obs.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/storage/disk_model.h"
#include "pdsi/pfs/config.h"

namespace pdsi::fault {
class FaultInjector;
struct Factors;
}  // namespace pdsi::fault

namespace pdsi::pfs {

/// Windowed per-server metrics, as an external monitor would sample them.
struct OssMetrics {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  OnlineStats latency;  ///< per-request service latency (s)
};

class Oss {
 public:
  /// `ctx` (optional) makes every request emit a span on track
  /// obs::kOssTrackBase + index and feed the oss.* instruments.
  Oss(const PfsConfig& cfg, std::uint32_t index, obs::Context* ctx = nullptr);

  std::uint32_t index() const { return index_; }

  /// Accepts `len` bytes for `object_id` at object offset `off` arriving
  /// at time `now`; returns when the client's RPC completes (including
  /// any synchronous flush it triggered). `charge_rpc` is false for the
  /// tail requests of a batched wire message (pdsi::rpc): the batch head
  /// already paid the one-way latency, so tails enter the server
  /// pipeline directly. `req` (0 = unattributed) is the client's causal
  /// request id; it lands on the service span only when a live monitor
  /// is subscribed, so unmonitored traces stay byte-identical.
  double serve_write(std::uint64_t object_id, std::uint64_t off, std::uint64_t len,
                     double now, bool charge_rpc = true, std::uint64_t req = 0);

  /// Serves a read; sequential readers hit the readahead window.
  double serve_read(std::uint64_t object_id, std::uint64_t off, std::uint64_t len,
                    double now, bool charge_rpc = true, std::uint64_t req = 0);

  /// Serves a failover read for data whose primary server is down:
  /// charged like a cold read (rpc + cpu + disk + nic) without touching
  /// this server's cache state (the replica copy's cache is not modelled).
  double serve_failover_read(std::uint64_t object_id, std::uint64_t off,
                             std::uint64_t len, double now,
                             std::uint64_t req = 0);

  /// Metadata-ish small op on this server (e.g. object create).
  double serve_small_op(double now, std::uint64_t req = 0);

  /// Forces pending dirty data for the object to disk.
  double flush(std::uint64_t object_id, double now);

  /// Drops cached state for an object (unlink).
  void forget(std::uint64_t object_id);

  /// Installs the cluster's fault injector: its degradation factors for
  /// this server multiply every CPU, NIC and disk charge, and volatile
  /// cache state (write-back runs, readahead windows) is dropped once a
  /// crash window has passed.
  void set_fault(const fault::FaultInjector* f) { fault_ = f; }

  /// Snapshot-and-reset windowed metrics (monitor sampling).
  OssMetrics drain_metrics();

  const storage::DiskModel& disk() const { return disk_; }
  double disk_busy_seconds() const { return disk_res_.busy_seconds(); }

 private:
  struct ObjectState {
    std::uint64_t pending_start = 0;  ///< dirty run awaiting flush
    std::uint64_t pending_len = 0;
    std::uint64_t ra_start = 0;       ///< readahead window
    std::uint64_t ra_len = 0;
    std::uint64_t size = 0;           ///< highest byte stored here
  };

  /// The injector's factors for a request arriving at `now`.
  fault::Factors slowdown(double now) const;
  double rmw_charge(std::uint64_t object_id, std::uint64_t off, double t,
                    double disk_factor);
  double flush_pending(ObjectState& st, std::uint64_t object_id, double t,
                       double disk_factor);
  /// Crash recovery: if an injected crash window began since the last
  /// request, the restarted server has lost its volatile cache (dirty
  /// write-back runs and readahead windows; object sizes are on disk).
  void maybe_crash_reset(double now);
  void record(double start, double end, std::uint64_t len);
  /// Charges a disk access, slowed by the request's `disk_factor`, and
  /// splits the service into seek vs transfer time for the obs gauges;
  /// emits a "disk" span when tracing.
  double disk_charge(std::uint64_t object_id, std::uint64_t off,
                     std::uint64_t len, double t, double disk_factor,
                     const char* what);

  const PfsConfig& cfg_;
  std::uint32_t index_;
  storage::DiskModel disk_;
  sim::SimResource disk_res_;
  sim::SimResource nic_res_;
  sim::SimResource cpu_res_;
  const fault::FaultInjector* fault_ = nullptr;
  double fault_checked_ = 0.0;  ///< crash windows scanned up to here
  OssMetrics metrics_;
  std::unordered_map<std::uint64_t, ObjectState> objects_;

  // Observability (all null when no context is installed).
  obs::Context* ctx_ = nullptr;
  obs::Counter* c_bytes_written_ = nullptr;
  obs::Counter* c_bytes_read_ = nullptr;
  obs::Counter* c_ops_ = nullptr;
  obs::Gauge* g_seek_s_ = nullptr;
  obs::Gauge* g_transfer_s_ = nullptr;
  obs::Histogram* h_write_lat_ = nullptr;
  obs::Histogram* h_read_lat_ = nullptr;
};

}  // namespace pdsi::pfs
