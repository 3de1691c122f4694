#include "pdsi/pfs/oss.h"

#include <algorithm>

#include "pdsi/fault/fault.h"

namespace pdsi::pfs {

namespace {
constexpr double kCpuPerOpS = 50e-6;         ///< request processing cost
constexpr double kNetBwBytes = 400.0 * 1e6;  ///< per-OSS NIC bandwidth
/// Write-back cache / aggregation: dirty data flushes to disk in
/// contiguous per-object chunks of this size; a cold read fetches a
/// readahead window of the same size.
constexpr std::uint64_t kFlushChunk = 4 * MiB;
}  // namespace

Oss::Oss(const PfsConfig& cfg, std::uint32_t index, obs::Context* ctx)
    : cfg_(cfg), index_(index), disk_(OssDisk()), ctx_(ctx) {
  if (ctx_ && ctx_->registry) {
    auto& r = *ctx_->registry;
    c_bytes_written_ = &r.counter("oss.bytes_written");
    c_bytes_read_ = &r.counter("oss.bytes_read");
    c_ops_ = &r.counter("oss.ops");
    g_seek_s_ = &r.gauge("oss.seek_seconds");
    g_transfer_s_ = &r.gauge("oss.transfer_seconds");
    h_write_lat_ = &r.histogram("oss.write_latency_s", obs::LatencyBuckets());
    h_read_lat_ = &r.histogram("oss.read_latency_s", obs::LatencyBuckets());
  }
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->track(obs::kOssTrackBase + index_, "oss" + std::to_string(index_));
  }
}

void Oss::record(double start, double end, std::uint64_t len) {
  ++metrics_.ops;
  metrics_.bytes += len;
  metrics_.latency.add(end - start);
  if (ctx_ && c_ops_) c_ops_->add(1);
}

void Oss::maybe_crash_reset(double now) {
  if (!fault_) return;
  if (fault_->crashes_between(index_, fault_checked_, now) > 0) {
    // The restarted server lost volatile state: dirty write-back runs and
    // readahead windows. Object sizes survive — the extent map is on disk
    // (and payload integrity lives in the cluster-level SparseBuffer).
    for (auto& kv : objects_) {
      kv.second.pending_len = 0;
      kv.second.ra_len = 0;
    }
  }
  fault_checked_ = std::max(fault_checked_, now);
}

fault::Factors Oss::slowdown(double now) const {
  return fault_ ? fault_->factors(index_, now) : fault::Factors{};
}

double Oss::disk_charge(std::uint64_t object_id, std::uint64_t off,
                        std::uint64_t len, double t, double disk_factor,
                        const char* what) {
  const double service = disk_.access(object_id, off, len) * disk_factor;
  const double done = disk_res_.reserve(t, service);
  if (ctx_) {
    // Seek-vs-transfer attribution: streaming time is the irreducible
    // part, everything above it is head positioning (the quantity PLFS
    // exists to eliminate).
    const double transfer =
        std::min(service, disk_.stream_time(len) * disk_factor);
    if (g_transfer_s_) g_transfer_s_->add(transfer);
    if (g_seek_s_) g_seek_s_->add(service - transfer);
    if (ctx_->tracer) {
      ctx_->tracer->complete(obs::kOssTrackBase + index_, what, "disk",
                             done - service, done,
                             {obs::Arg::Int("obj", object_id),
                              obs::Arg::Int("len", len),
                              obs::Arg::Num("seek_s", service - transfer)});
    }
  }
  return done;
}

double Oss::flush_pending(ObjectState& st, std::uint64_t object_id, double t,
                          double disk_factor) {
  if (st.pending_len == 0) return t;
  const std::uint64_t len = st.pending_len;
  st.pending_len = 0;
  return disk_charge(object_id, st.pending_start, len, t, disk_factor, "flush");
}

double Oss::rmw_charge(std::uint64_t object_id, std::uint64_t off, double t,
                       double disk_factor) {
  // Unaligned write into a cold region: read the containing RAID/block
  // unit before it can be modified.
  const std::uint64_t unit_start = off / cfg_.rmw_unit * cfg_.rmw_unit;
  return disk_charge(object_id, unit_start, cfg_.rmw_unit, t, disk_factor, "rmw");
}

double Oss::serve_write(std::uint64_t object_id, std::uint64_t off,
                        std::uint64_t len, double now, bool charge_rpc,
                        std::uint64_t req) {
  maybe_crash_reset(now);
  const fault::Factors slow = slowdown(now);
  const double disk_q = ctx_ ? std::max(0.0, disk_res_.free_at() - now) : 0.0;
  double t = charge_rpc ? now + cfg_.rpc_latency_s : now;
  t = cpu_res_.reserve(t, (kCpuPerOpS + cfg_.security_verify_s) * slow.cpu);
  t = nic_res_.reserve(t, static_cast<double>(len) / kNetBwBytes * slow.nic);

  ObjectState& st = objects_[object_id];
  st.size = std::max(st.size, off + len);
  // An overlapping write invalidates the readahead window: the cached
  // pages no longer match what a subsequent read must observe, so only
  // the untouched prefix may keep serving hits.
  if (st.ra_len > 0 && off < st.ra_start + st.ra_len && off + len > st.ra_start) {
    st.ra_len = off > st.ra_start ? off - st.ra_start : 0;
  }
  const bool extends =
      st.pending_len > 0 && off == st.pending_start + st.pending_len;
  if (extends) {
    st.pending_len += len;
  } else {
    // A discontiguous arrival evicts the previous run (small flush) —
    // this is what shreds interleaved strided writes to a shared object.
    t = flush_pending(st, object_id, t, slow.disk);
    if (cfg_.rmw_unit != 0 && off % cfg_.rmw_unit != 0) {
      t = rmw_charge(object_id, off, t, slow.disk);
    }
    st.pending_start = off;
    st.pending_len = len;
  }
  if (st.pending_len >= kFlushChunk) {
    t = flush_pending(st, object_id, t, slow.disk);
    st.pending_start = off + len;
  }
  record(now, t, len);
  if (ctx_) {
    if (c_bytes_written_) c_bytes_written_->add(len);
    if (h_write_lat_) h_write_lat_->add(t - now);
    if (ctx_->tracer) {
      ctx_->tracer->complete(obs::kOssTrackBase + index_, "write", "oss", now,
                             t,
                             {obs::Arg::Int("obj", object_id),
                              obs::Arg::Int("off", off),
                              obs::Arg::Int("len", len),
                              obs::Arg::Num("disk_q_s", disk_q)},
                             req);
    }
  }
  return t;
}

double Oss::serve_read(std::uint64_t object_id, std::uint64_t off,
                       std::uint64_t len, double now, bool charge_rpc,
                       std::uint64_t req) {
  maybe_crash_reset(now);
  const fault::Factors slow = slowdown(now);
  const double disk_q = ctx_ ? std::max(0.0, disk_res_.free_at() - now) : 0.0;
  double t = charge_rpc ? now + cfg_.rpc_latency_s : now;
  t = cpu_res_.reserve(t, (kCpuPerOpS + cfg_.security_verify_s) * slow.cpu);

  ObjectState& st = objects_[object_id];
  const bool hit =
      st.ra_len > 0 && off >= st.ra_start && off + len <= st.ra_start + st.ra_len;
  if (!hit && off >= st.size) {
    // Hole on this server: nothing is stored at or beyond `off` (the
    // client clamps against the MDS size, which spans all stripes), so
    // the extent map answers without disk I/O and no readahead window is
    // installed: no transfer is charged for data that was never written.
  } else if (!hit) {
    // Fetch a readahead window starting at the request, clamped to the
    // object's stored size (no point prefetching past EOF). Dirty pending
    // data must reach disk first so the read observes it.
    t = flush_pending(st, object_id, t, slow.disk);
    std::uint64_t window = std::max<std::uint64_t>(len, kFlushChunk);
    window = std::min(window, st.size - off);
    window = std::max(window, len);
    t = disk_charge(object_id, off, window, t, slow.disk, "readahead");
    st.ra_start = off;
    st.ra_len = window;
  }
  t = nic_res_.reserve(t, static_cast<double>(len) / kNetBwBytes * slow.nic);
  record(now, t, len);
  if (ctx_) {
    if (c_bytes_read_) c_bytes_read_->add(len);
    if (h_read_lat_) h_read_lat_->add(t - now);
    if (ctx_->tracer) {
      ctx_->tracer->complete(obs::kOssTrackBase + index_, "read", "oss", now,
                             t,
                             {obs::Arg::Int("obj", object_id),
                              obs::Arg::Int("off", off),
                              obs::Arg::Int("len", len),
                              obs::Arg::Num("disk_q_s", disk_q)},
                             req);
    }
  }
  return t;
}

double Oss::serve_failover_read(std::uint64_t object_id, std::uint64_t off,
                                std::uint64_t len, double now,
                                std::uint64_t req) {
  maybe_crash_reset(now);
  const fault::Factors slow = slowdown(now);
  double t = now + cfg_.rpc_latency_s;
  t = cpu_res_.reserve(t, (kCpuPerOpS + cfg_.security_verify_s) * slow.cpu);
  // Always a cold disk read: the replica copy's cache is not modelled and
  // this server's own readahead window must not be disturbed.
  t = disk_charge(object_id, off, len, t, slow.disk, "failover_read");
  t = nic_res_.reserve(t, static_cast<double>(len) / kNetBwBytes * slow.nic);
  record(now, t, len);
  if (ctx_) {
    if (c_bytes_read_) c_bytes_read_->add(len);
    if (h_read_lat_) h_read_lat_->add(t - now);
    if (ctx_->tracer) {
      ctx_->tracer->complete(obs::kOssTrackBase + index_, "failover_read",
                             "oss", now, t,
                             {obs::Arg::Int("obj", object_id),
                              obs::Arg::Int("off", off),
                              obs::Arg::Int("len", len)},
                             req);
    }
  }
  return t;
}

double Oss::serve_small_op(double now, std::uint64_t req) {
  maybe_crash_reset(now);
  double t = now + cfg_.rpc_latency_s;
  t = cpu_res_.reserve(t, kCpuPerOpS * slowdown(now).cpu);
  record(now, t, 0);
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(obs::kOssTrackBase + index_, "small_op", "oss", now,
                           t, {}, req);
  }
  return t;
}

double Oss::flush(std::uint64_t object_id, double now) {
  maybe_crash_reset(now);
  auto it = objects_.find(object_id);
  if (it == objects_.end()) return now;
  return flush_pending(it->second, object_id, now, slowdown(now).disk);
}

void Oss::forget(std::uint64_t object_id) { objects_.erase(object_id); }

OssMetrics Oss::drain_metrics() {
  OssMetrics out = metrics_;
  metrics_ = OssMetrics{};
  return out;
}

}  // namespace pdsi::pfs
