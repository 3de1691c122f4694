#include "pdsi/bb/burst_buffer.h"

#include <algorithm>
#include <stdexcept>

namespace pdsi::bb {

BurstBuffer::BurstBuffer(BbParams params, DrainTarget& target, obs::Context* obs)
    : params_(params), target_(target), ssd_(params.ssd), ctx_(obs) {
  if (params_.low_watermark < 0.0 || params_.high_watermark > 1.0 ||
      params_.low_watermark >= params_.high_watermark) {
    throw std::invalid_argument("BurstBuffer: watermarks must satisfy 0 <= low < high <= 1");
  }
  if (params_.drain_unit == 0) {
    throw std::invalid_argument("BurstBuffer: drain_unit must be positive");
  }
  if (ctx_) {
    if (ctx_->tracer) {
      ctx_->tracer->track(obs::kBbIngestTrack, "bb.ingest");
      ctx_->tracer->track(obs::kBbDrainTrack, "bb.drain");
    }
    if (ctx_->registry) {
      c_absorbed_ = &ctx_->registry->counter("bb.bytes_absorbed");
      c_drained_ = &ctx_->registry->counter("bb.bytes_drained");
      c_evicted_ = &ctx_->registry->counter("bb.bytes_evicted");
      c_stalls_ = &ctx_->registry->counter("bb.ingest_stalls");
      h_absorb_s_ = &ctx_->registry->histogram("bb.absorb_s", obs::LatencyBuckets());
    }
  }
}

// -- Interval-set helpers ---------------------------------------------------

std::vector<BurstBuffer::Run> BurstBuffer::RangePieces(const RangeMap& m,
                                                       std::uint64_t file,
                                                       std::uint64_t s,
                                                       std::uint64_t e) {
  std::vector<Run> pieces;
  if (s >= e) return pieces;
  auto it = m.lower_bound(s);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second > s) it = prev;
  }
  for (; it != m.end() && it->first < e; ++it) {
    const std::uint64_t os = std::max(it->first, s);
    const std::uint64_t oe = std::min(it->second, e);
    if (oe > os) pieces.push_back({file, os, oe - os});
  }
  return pieces;
}

// -- Staging flash ----------------------------------------------------------

double BurstBuffer::absorb_to_flash(std::uint64_t len) {
  // The buffer runs the device as an append log: sequential programs keep
  // FTL write amplification at ~1 no matter how ranks interleave, which is
  // why burst buffers get flash-sequential absorb speed out of checkpoint
  // traffic that would be random at the PFS.
  double t = 0.0;
  const std::uint64_t cap = params_.ssd.capacity_bytes;
  // One erase block per flash command: a single huge program could demand
  // more free pages than the over-provision headroom can ever supply (the
  // FTL refuses to consume its last erased block), while block-sized
  // commands let garbage collection reclaim space between them.
  const std::uint64_t chunk = static_cast<std::uint64_t>(params_.ssd.pages_per_block) *
                              params_.ssd.page_bytes;
  std::uint64_t remaining = len;
  while (remaining > 0) {
    const std::uint64_t pos = log_cursor_;
    const std::uint64_t n = std::min({remaining, cap - pos, chunk});
    t += ssd_.write(pos, n);
    log_cursor_ = (pos + n) % cap;
    remaining -= n;
  }
  return t;
}

double BurstBuffer::staged_read_cost(std::uint64_t off, std::uint64_t len) {
  const std::uint64_t cap = params_.ssd.capacity_bytes;
  std::uint64_t pos = off % cap;
  if (pos + len > cap) pos = 0;  // fold wrapped log positions
  return ssd_.read(pos, len);
}

// -- Ingest -----------------------------------------------------------------

double BurstBuffer::write(std::uint64_t file, std::uint64_t off,
                          std::uint64_t len, double now) {
  if (len == 0) return now;
  const std::uint64_t cap = params_.ssd.capacity_bytes;
  if (len > cap) {
    throw std::invalid_argument("BurstBuffer: write larger than the staging device");
  }
  queue_.run_until(now);

  bool stalled = false;
  // Watermark backpressure with hysteresis: once un-drained bytes cross
  // the high mark, ingest parks until drains pull them under the low mark.
  const auto high = static_cast<std::uint64_t>(params_.high_watermark *
                                               static_cast<double>(cap));
  const auto low = static_cast<std::uint64_t>(params_.low_watermark *
                                              static_cast<double>(cap));
  if (undrained_bytes() >= high) {
    stalled = true;
    ++stats_.ingest_stalls;
    while (undrained_bytes() > low && queue_.step()) {
    }
  }

  // Capacity: make room by evicting clean (already-durable) data
  // oldest-first; if everything staged is still dirty or in flight, wait
  // on drain progress.
  while (true) {
    std::uint64_t covered = 0;
    auto it = files_.find(file);
    if (it != files_.end()) {
      for (const Run& p : RangePieces(it->second.resident, file, off, off + len)) {
        covered += p.len;
      }
    }
    const std::uint64_t growth = len - covered;
    if (resident_bytes_ + growth <= cap) break;
    if (evict_for(resident_bytes_ + growth - cap)) continue;  // re-check fit
    if (!stalled) {
      stalled = true;
      ++stats_.ingest_stalls;
    }
    if (!queue_.step()) {
      throw std::logic_error("BurstBuffer: staging wedged (un-drained data exceeds capacity)");
    }
  }

  const double start = std::max(now, queue_.now());
  if (stalled) {
    stats_.stall_seconds += start - now;
    if (c_stalls_) c_stalls_->add(1);
    if (ctx_ && ctx_->tracer && start > now) {
      ctx_->tracer->complete(obs::kBbIngestTrack, "stall", "bb", now, start,
                             {obs::Arg::Int("file", file)});
    }
  }

  const double dt = absorb_to_flash(len);
  const double done = start + dt;
  ++stats_.writes;
  stats_.bytes_absorbed += len;
  stats_.absorb_seconds += dt;
  if (c_absorbed_) c_absorbed_->add(len);
  if (h_absorb_s_) h_absorb_s_->add(dt);
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(obs::kBbIngestTrack, "absorb", "bb", start, done,
                           {obs::Arg::Int("file", file), obs::Arg::Int("off", off),
                            obs::Arg::Int("len", len)});
  }

  FileState& fs = state(file);
  resident_bytes_ += RangeAdd(fs.resident, off, off + len);
  dirty_bytes_ += RangeAdd(fs.dirty, off, off + len);
  drain_fifo_.push_back({file, off, len, done});
  maybe_schedule_drain(done);
  return done;
}

bool BurstBuffer::evict_for(std::uint64_t need) {
  std::uint64_t freed = 0;
  while (freed < need && !clean_fifo_.empty()) {
    const Run r = clean_fifo_.front();
    clean_fifo_.pop_front();
    auto it = files_.find(r.file);
    if (it == files_.end()) continue;  // file dropped since the drain
    FileState& fs = it->second;
    // Only bytes that are neither re-dirtied nor mid-drain may go: for
    // those the staging copy is the only copy.
    RangeMap evictable;
    for (const Run& p : RangePieces(fs.resident, r.file, r.off, r.off + r.len)) {
      evictable.emplace(p.off, p.off + p.len);
    }
    for (const auto& [s, e] : fs.dirty) RangeRemove(evictable, s, e);
    for (const auto& [s, e] : fs.in_flight) RangeRemove(evictable, s, e);
    for (const auto& [s, e] : evictable) {
      const std::uint64_t n = RangeRemove(fs.resident, s, e);
      resident_bytes_ -= n;
      freed += n;
      stats_.bytes_evicted += n;
      if (n > 0) {
        if (c_evicted_) c_evicted_->add(n);
        if (ctx_ && ctx_->tracer) {
          ctx_->tracer->instant(obs::kBbIngestTrack, "evict", "bb", queue_.now(),
                                {obs::Arg::Int("file", r.file),
                                 obs::Arg::Int("off", s), obs::Arg::Int("len", n)});
        }
      }
    }
  }
  return freed >= need;
}

// -- Drain scheduler --------------------------------------------------------

void BurstBuffer::maybe_schedule_drain(double not_before) {
  if (drain_active_ || drain_fifo_.empty()) return;
  drain_active_ = true;
  queue_.at(std::max(not_before, queue_.now()), [this] { drain_step(); });
}

void BurstBuffer::drain_step() {
  const double t = queue_.now();
  while (!drain_fifo_.empty()) {
    if (drain_fifo_.front().available_at > t) {
      // Next staged data is still being absorbed; wake when it lands.
      queue_.at(drain_fifo_.front().available_at, [this] { drain_step(); });
      return;
    }
    // Assemble one drain unit: FIFO entries of a single file, up to
    // drain_unit dirty bytes, contiguous pieces merged so the target sees
    // large sequential writes.
    const std::uint64_t file = drain_fifo_.front().file;
    FileState& fs = state(file);
    std::vector<Run> runs;
    std::uint64_t bytes = 0;
    while (!drain_fifo_.empty() && drain_fifo_.front().file == file &&
           drain_fifo_.front().available_at <= t && bytes < params_.drain_unit) {
      const LogEntry e = drain_fifo_.front();
      drain_fifo_.pop_front();
      for (const Run& p : RangePieces(fs.dirty, file, e.off, e.off + e.len)) {
        RangeRemove(fs.dirty, p.off, p.off + p.len);
        RangeAdd(fs.in_flight, p.off, p.off + p.len);
        dirty_bytes_ -= p.len;
        in_flight_bytes_ += p.len;
        if (!runs.empty() && runs.back().off + runs.back().len == p.off) {
          runs.back().len += p.len;  // coalesce contiguous pieces
        } else {
          runs.push_back(p);
        }
        bytes += p.len;
      }
    }
    if (runs.empty()) continue;  // superseded entries (range drained already)

    // The drain stream reads the unit off the staging flash and writes it
    // to the target; being serial, the op holds the stream for the longer
    // of the two.
    double flash = 0.0;
    double tcur = t;
    for (const Run& r : runs) {
      flash += staged_read_cost(r.off, r.len);
      tcur = target_.drain(file, r.off, r.len, tcur);
    }
    const double end = std::max(t + flash, tcur);
    ++stats_.drain_ops;
    stats_.drain_busy_seconds += end - t;
    if (ctx_ && ctx_->tracer) {
      ctx_->tracer->complete(obs::kBbDrainTrack, "drain", "bb", t, end,
                             {obs::Arg::Int("file", file),
                              obs::Arg::Int("bytes", bytes),
                              obs::Arg::Int("runs", runs.size())});
    }
    queue_.at(end, [this, runs = std::move(runs), bytes] {
      complete_drain(runs, bytes);
      drain_step();
    });
    return;
  }
  drain_active_ = false;
}

void BurstBuffer::complete_drain(const std::vector<Run>& runs, std::uint64_t bytes) {
  in_flight_bytes_ -= bytes;
  for (const Run& r : runs) {
    auto it = files_.find(r.file);
    if (it == files_.end()) continue;  // dropped while in flight
    RangeRemove(it->second.in_flight, r.off, r.off + r.len);
    stats_.bytes_drained += r.len;
    if (c_drained_) c_drained_->add(r.len);
    clean_fifo_.push_back(r);
    if (sink_) sink_(r.file, r.off, r.len);
  }
}

// -- Reads, barriers, unlink ------------------------------------------------

double BurstBuffer::read(std::uint64_t file, std::uint64_t off,
                         std::uint64_t len, double now, bool* hit) {
  queue_.run_until(now);
  auto it = files_.find(file);
  const bool resident =
      len > 0 && it != files_.end() && RangeCovers(it->second.resident, off, off + len);
  if (hit) *hit = resident;
  if (!resident) return now;
  return std::max(now, queue_.now()) + staged_read_cost(off, len);
}

double BurstBuffer::flush(double now) {
  queue_.run_until(now);
  maybe_schedule_drain(queue_.now());
  while (undrained_bytes() > 0) {
    if (!queue_.step()) {
      throw std::logic_error("BurstBuffer: flush cannot make drain progress");
    }
  }
  const double done = std::max(now, queue_.now());
  if (ctx_ && ctx_->tracer && done > now) {
    ctx_->tracer->complete(obs::kBbIngestTrack, "flush_barrier", "bb", now, done);
  }
  return done;
}

void BurstBuffer::drop_file(std::uint64_t file) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  for (const auto& [s, e] : it->second.dirty) dirty_bytes_ -= e - s;
  for (const auto& [s, e] : it->second.resident) resident_bytes_ -= e - s;
  // In-flight bytes stay in the global counter until their completion
  // event fires (which finds the file gone and skips the sink).
  files_.erase(it);
  std::erase_if(drain_fifo_, [file](const LogEntry& e) { return e.file == file; });
  std::erase_if(clean_fifo_, [file](const Run& r) { return r.file == file; });
}

}  // namespace pdsi::bb
