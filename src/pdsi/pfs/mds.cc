#include "pdsi/pfs/mds.h"

namespace pdsi::pfs {

namespace {
constexpr double kDirLockS = 300e-6;  ///< parent-directory lock hold
}  // namespace

Mds::Mds(const PfsConfig& cfg, obs::Context* ctx, std::uint32_t shard,
         std::uint32_t num_shards)
    : Namespace(1 + (std::uint64_t{shard} << 40)),
      cfg_(cfg),
      track_(obs::kMdsTrack + shard),
      ctx_(ctx) {
  // Single-shard instruments keep the historical names (and so the
  // historical metric dumps); shards of a sharded namespace get
  // per-shard names and tracks.
  if (num_shards > 1) iprefix_ = "mds.s" + std::to_string(shard) + ".";
  if (ctx_ && ctx_->registry) {
    c_ops_ = &ctx_->registry->counter(iprefix_ + "ops");
    h_lat_ = &ctx_->registry->histogram(iprefix_ + "op_latency_s",
                                        obs::LatencyBuckets());
  }
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->track(track_, num_shards > 1
                                    ? "mds" + std::to_string(shard)
                                    : "mds");
  }
}

double Mds::charge(double now, std::uint64_t req) {
  const double done = service_.reserve(now, cfg_.mds_op_s);
  if (ctx_) {
    if (c_ops_) c_ops_->add(1);
    if (h_lat_) h_lat_->add(done - now);
    if (ctx_->tracer) {
      ctx_->tracer->complete(track_, "op", "mds", done - cfg_.mds_op_s, done,
                             {}, req);
    }
  }
  return done;
}

double Mds::charge_fraction(double now, double fraction, std::uint64_t req) {
  const double done = service_.reserve(now, cfg_.mds_op_s * fraction);
  if (ctx_) {
    if (c_ops_) c_ops_->add(1);
    if (h_lat_) h_lat_->add(done - now);
    if (ctx_->tracer) {
      ctx_->tracer->complete(track_, "group_op", "mds",
                             done - cfg_.mds_op_s * fraction, done,
                             {obs::Arg::Num("fraction", fraction)}, req);
    }
  }
  return done;
}

double Mds::publish(double now, double fraction, std::uint64_t req) {
  const double cost = cfg_.mds_op_s * fraction;
  const double done = service_.reserve(now, cost);
  if (ctx_) {
    if (ctx_->registry && c_publishes_ == nullptr) {
      c_publishes_ = &ctx_->registry->counter(iprefix_ + "publishes");
    }
    if (c_publishes_) c_publishes_->add(1);
    if (ctx_->tracer) {
      ctx_->tracer->complete(track_, "publish", "mds", done - cost, done,
                             {obs::Arg::Num("fraction", fraction)}, req);
    }
  }
  return done;
}

double Mds::charge_dir(std::string_view parent, double now,
                       std::uint64_t req) {
  auto lock = dir_locks_.find(parent);
  if (lock == dir_locks_.end()) {
    lock = dir_locks_.emplace(std::string(parent), sim::SimResource{}).first;
  }
  const double done = lock->second.reserve(now, kDirLockS);
  if (ctx_ && ctx_->tracer) {
    // The span covers the lock hold; queueing shows as the gap from `now`.
    ctx_->tracer->complete(track_, "dir_lock", "mds", done - kDirLockS, done,
                           {}, req);
  }
  return done;
}

double Mds::migrate(double now, double cost, std::uint64_t partition,
                    std::uint64_t moved, std::uint64_t req) {
  const double done = service_.reserve(now, cost);
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(track_, "split_migrate", "mds", done - cost, done,
                           {obs::Arg::Int("partition", partition),
                            obs::Arg::Int("moved", moved)},
                           req);
  }
  return done;
}

}  // namespace pdsi::pfs
