#include "pdsi/tier/tier_engine.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "pdsi/bb/drain_target.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::tier {

TierEngine::TierEngine(TierEngineParams params, pfs::PfsCluster& cluster,
                       obs::Context* ctx)
    : params_(params),
      cluster_(cluster),
      drain_target_(bb::MakePfsDrainTarget(cluster)),
      bb_(std::make_unique<bb::BurstBuffer>(params.bb, *drain_target_, ctx)),
      store_(params.cold, ctx),
      ctx_(ctx) {
  bb_->set_drain_sink([this](std::uint64_t id, std::uint64_t off, std::uint64_t len) {
    on_drained(id, off, len);
  });
  if (ctx_) {
    if (ctx_->tracer) ctx_->tracer->track(obs::kTierTrack, "tier");
    if (ctx_->registry) {
      c_reads_ = &ctx_->registry->counter("tier.reads");
      c_writes_ = &ctx_->registry->counter("tier.writes");
      c_hot_hits_ = &ctx_->registry->counter("tier.hot_hits");
      c_warm_hits_ = &ctx_->registry->counter("tier.warm_hits");
      c_cold_hits_ = &ctx_->registry->counter("tier.cold_hits");
      c_demotions_ = &ctx_->registry->counter("tier.demotions");
      c_promotions_ = &ctx_->registry->counter("tier.promotions");
      c_degraded_ = &ctx_->registry->counter("tier.degraded_reads");
      c_read_errors_ = &ctx_->registry->counter("tier.read_errors");
    }
  }
}

// -- Lookup -----------------------------------------------------------------

TierEngine::Object* TierEngine::find(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) return nullptr;
  return &objects_.at(it->second);
}

const TierEngine::Object* TierEngine::find(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) return nullptr;
  return &objects_.at(it->second);
}

// -- Warm-tier reads --------------------------------------------------------

Result<double> TierEngine::warm_read(std::uint64_t id, std::uint64_t off,
                                     std::uint64_t len, double now,
                                     bool* fell_over) {
  fault::FaultInjector* inj = cluster_.fault();
  double done = now;
  const bool ok = cluster_.for_each_chunk(
      id, off, len, [&](std::uint32_t server, std::uint64_t pos, std::uint64_t n) {
        if (!inj || !inj->down(server, now)) {
          done = std::max(done, cluster_.oss(server).serve_read(id, pos, n, now));
          return true;
        }
        if (!inj->plan().read_failover) return false;
        // Replica model: the next surviving server holds a copy.
        const std::uint32_t alt = cluster_.survivor(server, now);
        if (alt == server) return false;  // whole cluster down
        inj->note_failover(server, alt, now);
        *fell_over = true;
        done = std::max(done, cluster_.oss(alt).serve_failover_read(id, pos, n, now));
        return true;
      });
  if (!ok) return Errc::io_error;
  return done;
}

// -- Tier movement ----------------------------------------------------------

void TierEngine::invalidate_cold(Object& o) {
  if (!o.cold) return;
  store_.remove(kBucket, cold_key(o));
  o.cold = false;
}

void TierEngine::demote_to_cold(Object& o, double t) {
  double t_done = t;
  if (!o.cold) {
    auto r = store_.put(kBucket, cold_key(o), o.data, t);
    if (!r.ok()) return;  // cold tier full or too many devices lost
    t_done = *r;
    o.cold = true;
  }
  // The erasure-coded shards are the only copy from here on.
  warm_used_ -= o.meta.size;
  o.drained.clear();
  o.warm = false;
  bb_->drop_file(o.meta.id);
  o.data.clear();
  o.data.shrink_to_fit();
  ++stats_.demotions;
  stats_.demoted_bytes += o.meta.size;
  if (c_demotions_) c_demotions_->add();
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(obs::kTierTrack, "demote", "tier", t, t_done,
                           {obs::Arg::Int("id", o.meta.id),
                            obs::Arg::Int("bytes", o.meta.size)});
  }
}

void TierEngine::maybe_demote_warm(double t) {
  if (!OverPressure(usage(kWarmTier))) return;
  std::vector<Object*> victims;
  for (auto& [id, o] : objects_) {
    if (!o.warm || o.meta.size == 0) continue;
    if (o.meta.pin == kHotTier || o.meta.pin == kWarmTier) continue;
    victims.push_back(&o);
  }
  std::sort(victims.begin(), victims.end(), [](Object* a, Object* b) {
    return DemoteBefore(a->meta, b->meta);
  });
  for (Object* o : victims) {
    if (Relieved(usage(kWarmTier))) break;
    demote_to_cold(*o, t);
  }
}

void TierEngine::promote(Object& o, int target, const Bytes& bytes, double t) {
  double t_done = t;
  if (target == kWarmTier) {
    // Cold -> warm: restore the in-memory copy and charge the striped
    // copy-up; the cold shards stay (clean redundancy).
    o.data = bytes;
    warm_used_ += RangeAdd(o.drained, 0, o.meta.size);
    o.warm = true;
    t_done = drain_target_->drain(o.meta.id, 0, o.meta.size, t);
  } else if (target == kHotTier && o.meta.size <= bb_->capacity_bytes()) {
    // Warm -> hot: refill the staging flash. The buffer re-drains the
    // bytes, but the drained map already covers them, so the warm
    // accounting stays put. An object larger than the flash stays warm.
    t_done = bb_->write(o.meta.id, 0, o.meta.size, t);
  } else {
    return;
  }
  ++stats_.promotions;
  stats_.promoted_bytes += o.meta.size;
  if (c_promotions_) c_promotions_->add();
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(obs::kTierTrack, "promote", "tier", t, t_done,
                           {obs::Arg::Int("id", o.meta.id),
                            obs::Arg::Int("bytes", o.meta.size),
                            obs::Arg::Int("to", static_cast<std::uint64_t>(target))});
  }
  if (target == kWarmTier) maybe_demote_warm(t_done);
}

void TierEngine::on_drained(std::uint64_t id, std::uint64_t off, std::uint64_t len) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return;
  Object& o = it->second;
  warm_used_ += RangeAdd(o.drained, off, off + len);
  o.warm = RangeCovers(o.drained, 0, o.meta.size);
  // Demoting means driving the object store from inside a burst-buffer
  // callback; defer to settle(), outside the buffer's event loop.
  if (OverPressure(usage(kWarmTier))) pending_demote_ = true;
}

void TierEngine::settle(double now) {
  while (pending_demote_) {
    pending_demote_ = false;
    maybe_demote_warm(std::max(now, bb_->now()));
  }
}

// -- Data path --------------------------------------------------------------

Result<double> TierEngine::write(const std::string& name, std::uint64_t off,
                                 std::span<const std::uint8_t> data,
                                 double now) {
  Object* o = find(name);
  if (!o) {
    const std::uint64_t id = next_id_++;
    Object fresh;
    fresh.meta.id = id;
    fresh.meta.created = now;
    fresh.meta.window_start = now;
    if (auto p = pins_.find(name); p != pins_.end()) fresh.meta.pin = p->second;
    fresh.name = name;
    fresh.placed = InitialTier(fresh.meta);
    names_.emplace(name, id);
    o = &objects_.emplace(id, std::move(fresh)).first->second;
  }

  double start = now;
  bool recalled = false;
  if (o->cold && o->data.empty() && o->meta.size > 0) {
    // Cold-only object written again: recall it first (the write may be
    // partial, and a dirtied object cannot stay archive-resident).
    Bytes buf;
    auto r = store_.get(kBucket, cold_key(*o), &buf, now);
    if (!r.ok()) {
      ++stats_.read_errors;
      if (c_read_errors_) c_read_errors_->add();
      return r.error();
    }
    o->data = std::move(buf);
    start = *r;
    recalled = true;
  }
  invalidate_cold(*o);

  if (off + data.size() > o->data.size()) {
    o->data.resize(off + data.size(), 0);
  }
  std::memcpy(o->data.data() + off, data.data(), data.size());
  o->meta.size = o->data.size();
  o->meta.last_access = now;

  // A recalled object just lost its only durable copy (the archive shards
  // were invalidated), so the whole object is re-ingested, not only the
  // written range.
  const std::uint64_t dirty_off = recalled ? 0 : off;
  const std::uint64_t dirty_len =
      recalled ? o->meta.size : static_cast<std::uint64_t>(data.size());

  double done;
  if (o->placed == kWarmTier) {
    // Pinned-warm objects bypass the staging flash: the drain target
    // writes them straight to the warm servers.
    done = drain_target_->drain(o->meta.id, dirty_off, dirty_len, start);
    warm_used_ += RangeAdd(o->drained, dirty_off, dirty_off + dirty_len);
    o->warm = RangeCovers(o->drained, 0, o->meta.size);
  } else {
    // Hot path (also pin-to-cold: data flows through the buffer and is
    // demoted at the flush after it drains). Freshly written bytes make
    // any drained warm copy of the range stale.
    warm_used_ -= RangeRemove(o->drained, dirty_off, dirty_off + dirty_len);
    o->warm = RangeCovers(o->drained, 0, o->meta.size);
    // The buffer takes at most its device's capacity per write, and a
    // recalled object can be larger: absorb it in staging-sized pieces.
    const std::uint64_t piece = bb_->capacity_bytes();
    done = start;
    for (std::uint64_t pos = dirty_off; pos < dirty_off + dirty_len; pos += piece) {
      done = bb_->write(o->meta.id, pos,
                        std::min(piece, dirty_off + dirty_len - pos), done);
    }
  }
  ++stats_.writes;
  if (c_writes_) c_writes_->add();
  settle(done);
  if (o->placed == kWarmTier) maybe_demote_warm(done);
  return done;
}

Result<double> TierEngine::read(const std::string& name, std::uint64_t off,
                                std::span<std::uint8_t> out, double now,
                                std::size_t* n_read) {
  Object* o = find(name);
  if (!o) return Errc::not_found;
  const std::uint64_t n =
      off >= o->meta.size
          ? 0
          : std::min<std::uint64_t>(out.size(), o->meta.size - off);
  if (n_read) *n_read = static_cast<std::size_t>(n);
  ++stats_.reads;
  if (c_reads_) c_reads_->add();
  NoteRead(o->meta, now);
  ++o->meta.reads;
  o->meta.last_access = now;
  if (n == 0) return now;

  double done = now;
  int cur;
  const Bytes* src = &o->data;
  Bytes cold_buf;
  if (!o->data.empty()) {
    bool hit = false;
    done = bb_->read(o->meta.id, off, n, now, &hit);
    if (hit) {
      ++stats_.hot_hits;
      if (c_hot_hits_) c_hot_hits_->add();
      cur = kHotTier;
    } else {
      // Anything not flash-resident is drained (dirty bytes are never
      // evicted), so the warm tier serves the miss. Charging the whole
      // range to the warm stripes is conservative for mixed ranges.
      bool fell_over = false;
      auto r = warm_read(o->meta.id, off, n, now, &fell_over);
      if (r.ok()) {
        done = *r;
        ++stats_.warm_hits;
        if (c_warm_hits_) c_warm_hits_->add();
        if (fell_over) {
          ++stats_.degraded_reads;
          if (c_degraded_) c_degraded_->add();
        }
        cur = kWarmTier;
      } else if (o->cold) {
        // Warm servers down with no failover: the archive copy survives.
        auto g = store_.get(kBucket, cold_key(*o), &cold_buf, now);
        if (!g.ok()) {
          ++stats_.read_errors;
          if (c_read_errors_) c_read_errors_->add();
          return g.error();
        }
        done = *g;
        src = &cold_buf;
        ++stats_.cold_hits;
        if (c_cold_hits_) c_cold_hits_->add();
        ++stats_.degraded_reads;
        if (c_degraded_) c_degraded_->add();
        cur = kColdTier;
      } else {
        ++stats_.read_errors;
        if (c_read_errors_) c_read_errors_->add();
        return r.error();
      }
    }
  } else {
    // Cold-only: reassemble (or reconstruct) the erasure-coded shards.
    const std::uint64_t degraded_before = store_.stats().degraded_gets;
    auto g = store_.get(kBucket, cold_key(*o), &cold_buf, now);
    if (!g.ok()) {
      ++stats_.read_errors;
      if (c_read_errors_) c_read_errors_->add();
      return g.error();
    }
    done = *g;
    src = &cold_buf;
    ++stats_.cold_hits;
    if (c_cold_hits_) c_cold_hits_->add();
    if (store_.stats().degraded_gets != degraded_before) {
      ++stats_.degraded_reads;
      if (c_degraded_) c_degraded_->add();
    }
    cur = kColdTier;
  }

  std::memcpy(out.data(), src->data() + off, static_cast<std::size_t>(n));

  const int target = PromoteTo(o->meta, cur, now);
  if (target != kNoTier && target < cur) {
    if (cur == kColdTier) {
      promote(*o, kWarmTier, cold_buf.empty() ? *src : cold_buf, done);
    } else {
      promote(*o, target, o->data, done);
    }
  }
  return done;
}

double TierEngine::flush(double now) {
  const double t = bb_->flush(now);
  settle(t);
  // Pin enforcement: fully-drained pinned-cold objects move to the
  // archive at every flush, watermark or not.
  for (auto& [id, o] : objects_) {
    if (o.meta.pin == kColdTier && o.warm && !o.cold && o.meta.size > 0) {
      demote_to_cold(o, t);
    }
  }
  maybe_demote_warm(t);
  return t;
}

void TierEngine::run_until(double t) {
  bb_->run_until(t);
  settle(t);
}

// -- Namespace --------------------------------------------------------------

Status TierEngine::remove(const std::string& name) {
  auto it = names_.find(name);
  if (it == names_.end()) return Errc::not_found;
  Object& o = objects_.at(it->second);
  bb_->drop_file(o.meta.id);
  if (o.cold) store_.remove(kBucket, cold_key(o));
  std::uint64_t drained = 0;
  for (const auto& [s, e] : o.drained) drained += e - s;
  warm_used_ -= drained;
  objects_.erase(it->second);
  names_.erase(it);
  return Status::Ok();
}

Status TierEngine::rename(const std::string& from, const std::string& to) {
  auto it = names_.find(from);
  if (it == names_.end()) return Errc::not_found;
  if (names_.count(to)) return Errc::exists;
  const std::uint64_t id = it->second;
  names_.erase(it);
  names_.emplace(to, id);
  objects_.at(id).name = to;
  // Cold objects are keyed by id, so renames never touch the archive.
  if (auto p = pins_.find(from); p != pins_.end()) {
    pins_.emplace(to, p->second);
    pins_.erase(p);
  }
  return Status::Ok();
}

Result<std::uint64_t> TierEngine::size(const std::string& name) const {
  const Object* o = find(name);
  if (!o) return Errc::not_found;
  return o->meta.size;
}

bool TierEngine::exists(const std::string& name) const {
  return names_.count(name) > 0;
}

std::vector<std::string> TierEngine::list() const {
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const auto& [name, id] : names_) out.push_back(name);
  return out;
}

Status TierEngine::pin(const std::string& name, int tier) {
  if (tier < kNoTier || tier >= kNumTiers) return Errc::invalid;
  if (tier == kNoTier) {
    pins_.erase(name);
  } else {
    pins_[name] = tier;
  }
  if (Object* o = find(name)) o->meta.pin = tier;
  return Status::Ok();
}

// -- Faults / introspection -------------------------------------------------

void TierEngine::set_fault(fault::FaultInjector* f) {
  cluster_.set_fault(f);
  store_.set_fault(f, cluster_.num_oss());
}

TierUsage TierEngine::usage(int tier) const {
  TierUsage u;
  switch (tier) {
    case kHotTier:
      u.capacity = bb_->capacity_bytes();
      u.used = bb_->resident_bytes();
      break;
    case kWarmTier:
      u.capacity = params_.warm_capacity_bytes;
      u.used = warm_used_;
      break;
    case kColdTier:
      u.capacity = store_.capacity_bytes();
      u.used = store_.used_bytes();
      break;
    default:
      break;
  }
  return u;
}

int TierEngine::resident_tier(const std::string& name) const {
  const Object* o = find(name);
  if (!o) return kNoTier;
  if (o->cold && o->data.empty()) return kColdTier;
  if (o->warm) return kWarmTier;
  return kHotTier;
}

}  // namespace pdsi::tier
