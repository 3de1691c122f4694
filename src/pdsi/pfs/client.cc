#include "pdsi/pfs/client.h"

#include <algorithm>
#include <utility>

#include "pdsi/common/bytes.h"
#include "pdsi/fault/fault.h"

namespace pdsi::pfs {

namespace {
/// 32-bit content fingerprint for consist op annotations: the compact
/// trace format round-trips arg values through doubles, which represent
/// integers exactly only up to 2^53, so the full 64-bit hash is
/// truncated.
std::uint64_t ConsistFp(std::span<const std::uint8_t> data) {
  return HashBytes(data) & 0xffffffffULL;
}

/// Fraction of one MDS op an mpiio collective sync charges per client
/// (the sync-barrier-sync metadata exchange batches across the
/// collective; commit mode pays the full op).
constexpr double kMpiioSyncFraction = 0.25;
}  // namespace

PfsClient::PfsClient(PfsCluster& cluster, std::size_t actor)
    : cluster_(cluster), actor_(actor) {
  const PfsConfig& cfg = cluster_.config();
  if (obs::Context* ctx = cluster_.obs_ctx()) {
    if (ctx->tracer) {
      ctx->tracer->track(obs::kRankTrackBase + static_cast<std::uint32_t>(actor),
                         "rank" + std::to_string(actor));
    }
    if (ctx->registry) {
      c_lock_conflicts_ = &ctx->registry->counter("pfs.lock_conflicts");
      h_lock_wait_ = &ctx->registry->histogram("pfs.lock_wait_s", obs::LatencyBuckets());
      // Created only for opted-in runs so default metric dumps stay
      // byte-identical.
      if (cfg.consistency != consist::ConsistencyModel::posix) {
        c_lock_skips_ = &ctx->registry->counter("consist.lock_skips");
      }
      if (cfg.record_consist_ops) {
        c_consist_ops_ = &ctx->registry->counter("consist.ops");
      }
      if (cluster_.smds().num_shards() > 1) {
        c_mds_stale_ = &ctx->registry->counter("pfs.mds_stale_retries");
      }
    }
  }
  // One queue per OSS plus one per MDS shard; in the default sync mode
  // the engine is a pure pass-through (no queues used, no instruments
  // made). The wire latency lets the engine attribute the network
  // component in per-request monitor spans (it never charges it itself).
  engine_.configure({cfg.rpc_window, cfg.rpc_batch, cfg.rpc_latency_s},
                    cluster_.num_oss() + cluster_.smds().num_shards(),
                    cluster_.obs_ctx(),
                    obs::kRankTrackBase + static_cast<std::uint32_t>(actor));
}

bool PfsClient::recording_consist() const {
  const PfsConfig& cfg = cluster_.config();
  obs::Context* ctx = cluster_.obs_ctx();
  // Pipelined submission decouples an op's charge from its completion,
  // so the checker's (start, end) interval semantics only hold in sync
  // mode: consist recording requires rpc_window == rpc_batch == 1.
  return cfg.record_consist_ops && cfg.store_data && ctx && ctx->tracer &&
         !engine_.pipelined();
}

void PfsClient::record_consist_op(const char* name, std::uint64_t file_id,
                                  double start, double end, std::uint64_t off,
                                  std::uint64_t len, std::uint64_t fp) {
  cluster_.obs_ctx()->tracer->complete(
      obs::kRankTrackBase + static_cast<std::uint32_t>(actor_), name, "consist",
      start, end,
      {obs::Arg::Int("file", file_id), obs::Arg::Int("off", off),
       obs::Arg::Int("len", len), obs::Arg::Int("fp", fp)});
  if (c_consist_ops_) c_consist_ops_->add(1);
}

void PfsClient::record_consist_edge(const char* name, std::uint64_t file_id,
                                    double ts) {
  cluster_.obs_ctx()->tracer->instant(
      obs::kRankTrackBase + static_cast<std::uint32_t>(actor_), name, "consist",
      ts, {obs::Arg::Int("file", file_id)});
}

double PfsClient::now() const { return cluster_.scheduler().now(actor_); }

PfsClient::OpenFile* PfsClient::get(FileHandle fh) {
  if (fh < 0 || static_cast<std::size_t>(fh) >= open_files_.size()) return nullptr;
  OpenFile& f = open_files_[fh];
  return f.in_use ? &f : nullptr;
}

FileHandle PfsClient::put(std::uint64_t file_id, std::string path) {
  std::size_t i = free_hint_;
  while (i < open_files_.size() && open_files_[i].in_use) ++i;
  if (i == open_files_.size()) open_files_.emplace_back();
  open_files_[i] = {true, file_id, std::move(path), {}};
  free_hint_ = i + 1;
  return static_cast<FileHandle>(i);
}

double PfsClient::serve_mds(std::uint32_t shard, const MdsCharge& c,
                            std::uint64_t rid, double at, bool wire) {
  ShardedMds& smds = cluster_.smds();
  const double lat = cluster_.config().rpc_latency_s;
  Mds& mds = smds.shard(shard);
  double done = mds.charge(wire ? at + lat : at, rid, c.fraction);
  if (c.fanout != MdsCharge::Fanout::none && smds.num_shards() > 1) {
    const double served = done;
    for (std::uint32_t k = 0; k < smds.num_shards(); ++k) {
      if (k == shard && c.fanout == MdsCharge::Fanout::others) continue;
      done = std::max(done, smds.shard(k).charge(served + lat, rid));
    }
  }
  for (std::size_t b = 0; b < c.batches; ++b) done = mds.charge(done, rid);
  if (!c.parent.empty()) done = mds.charge_dir(c.parent, done, rid);
  return done;
}

double PfsClient::mds_rpc(double t, std::uint32_t shard, std::uint64_t rid,
                          const MdsCharge& c) {
  rpc::RequestEngine::Route route;
  route.queue = mds_queue(shard);
  route.drop_eligible = false;
  route.fault_exempt = true;  // the MDS is outside the fault plan
  route.req_id = rid;
  if (c.await || !engine_.pipelined()) {
    bool ok = true;
    return engine_.execute(
        route, [&](double at, bool wire) { return serve_mds(shard, c, rid, at, wire); },
        {}, t, nullptr, /*charge_wire=*/true, &ok);
  }
  // Only the clock rides the queue, served after the caller's parent path
  // may be gone: the request keeps its own copy.
  rpc::RequestEngine::Request req;
  static_cast<rpc::RequestEngine::Route&>(req) = route;
  MdsCharge queued = c;
  queued.parent = {};
  req.serve = [this, shard, rid, queued, parent = std::string(c.parent)](
                  double at, bool wire) mutable {
    queued.parent = parent;
    return serve_mds(shard, queued, rid, at, wire);
  };
  return engine_.submit(std::move(req), t, nullptr);
}

std::uint32_t PfsClient::route_mds(std::uint64_t hash, double* t,
                                   std::uint64_t rid, const MdsCharge& c) {
  ShardedMds& smds = cluster_.smds();
  if (smds.num_shards() == 1) return 0;
  for (;;) {
    const std::uint32_t p = mds_bitmap_.partition_for(hash);
    const std::uint32_t s = smds.shard_of(p);
    if (smds.fresh(p, hash)) return s;
    // The wrong shard still serves (and charges) the bounced op before
    // replying with its fresh bitmap rows.
    MdsCharge bounce;
    bounce.fraction = c.fraction;
    bounce.await = c.await;
    *t = mds_rpc(*t, s, rid, bounce);
    mds_bitmap_.merge(smds.bitmap());
    if (c_mds_stale_) c_mds_stale_->add(1);
  }
}

Status PfsClient::mkdir(const std::string& path) {
  Status st;
  const std::uint64_t rid = mint_req();
  const std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    const std::uint32_t s = route_mds(hash, &t, rid, {});
    st = cluster_.smds().mkdir(np);
    MdsCharge c;
    c.parent = ParentPath(np);
    return mds_rpc(t, s, rid, c);
  });
  return st;
}

Result<FileHandle> PfsClient::create(const std::string& path) {
  Result<FileHandle> out(Errc::io_error);
  const std::uint64_t rid = mint_req();
  // The path is normalised and hashed once; the handle keeps it.
  std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    // Routed before the create, so a split the create itself triggers
    // cannot bounce it.
    const std::uint32_t s = route_mds(hash, &t, rid, {});
    auto r = cluster_.smds().create(np, hash, t);
    MdsCharge c;
    if (r.ok()) c.parent = ParentPath(np);
    t = mds_rpc(t, s, rid, c);
    if (r.ok()) {
      out = put(r->file_id, std::move(np));
      if (recording_consist()) record_consist_edge("open", r->file_id, t);
    } else {
      out = r.error();
    }
    // A triggered split blocks this client: in GIGA+ the create completes
    // only once its partition has split.
    return cluster_.smds().settle_splits(t, rid);
  });
  return out;
}

Result<FileHandle> PfsClient::open(const std::string& path) {
  return open_group(path, 1);
}

Result<StatResult> PfsClient::stat(const std::string& path) {
  Result<StatResult> out(Errc::io_error);
  const std::uint64_t rid = mint_req();
  const std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    const std::uint32_t s = route_mds(hash, &t, rid, {});
    t = mds_rpc(t, s, rid, {});
    auto r = cluster_.smds().lookup(np);
    if (r.ok()) {
      out = StatResult{r->size, r->is_dir, r->mtime};
    } else {
      out = r.error();
    }
    return t;
  });
  return out;
}

Result<LayoutInfo> PfsClient::layout(const std::string& path) {
  Result<LayoutInfo> out(Errc::io_error);
  const std::uint64_t rid = mint_req();
  const std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    const std::uint32_t s = route_mds(hash, &t, rid, {});
    t = mds_rpc(t, s, rid, {});
    auto r = cluster_.smds().lookup(np);
    if (!r.ok()) {
      out = r.error();
    } else if (r->is_dir) {
      out = Errc::is_dir;
    } else {
      LayoutInfo info;
      info.stripe_unit = cluster_.config().stripe_unit;
      info.lock_unit = cluster_.config().lock_unit;
      info.num_servers = cluster_.num_oss();
      for (std::uint32_t k = 0; k < info.num_servers; ++k) {
        info.first_stripes.push_back(
            cluster_.placement().server_for(r->file_id, k, info.num_servers));
      }
      out = std::move(info);
    }
    return t;
  });
  return out;
}

Result<FileHandle> PfsClient::open_group(const std::string& path,
                                         std::uint32_t group_size) {
  Result<FileHandle> out(Errc::io_error);
  // One metadata op amortised over the group: the MDS answers once and
  // the result is broadcast over the (cheap) interconnect.
  MdsCharge share;
  share.fraction = 1.0 / std::max<std::uint32_t>(1, group_size);
  const std::uint64_t rid = mint_req();
  std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    const std::uint32_t s = route_mds(hash, &t, rid, share);
    t = mds_rpc(t, s, rid, share);
    auto r = cluster_.smds().lookup(np);
    if (!r.ok()) {
      out = r.error();
    } else if (r->is_dir) {
      out = Errc::is_dir;
    } else {
      out = put(r->file_id, std::move(np));
      if (recording_consist()) record_consist_edge("open", r->file_id, t);
    }
    return t;
  });
  return out;
}

Result<std::vector<std::string>> PfsClient::readdir(const std::string& path) {
  Result<std::vector<std::string>> out(Errc::io_error);
  const std::uint64_t rid = mint_req();
  const std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    const std::uint32_t s = route_mds(hash, &t, rid, {});
    out = cluster_.smds().readdir(np);
    // The addressed shard gathers a sharded listing from every other
    // shard. Large listings stream in bounded batches: the first 1024
    // entries arrive with the initial reply, so only the entries beyond
    // them cost extra ops.
    MdsCharge c;
    c.fanout = MdsCharge::Fanout::others;
    if (out.ok() && !out->empty()) c.batches = (out->size() - 1) / 1024;
    return mds_rpc(t, s, rid, c);
  });
  return out;
}

Status PfsClient::unlink(const std::string& path) {
  Status st;
  const std::uint64_t rid = mint_req();
  const std::string np = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(np);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    // Queued chunks may still target this file's objects (and decide
    // which servers count as touched), so teardown waits for them, and a
    // pipelined client charges this op at once too.
    bool dok = true;
    t = engine_.drain(t, cluster_.fault(), &dok);
    if (!dok) pending_io_error_ = true;
    MdsCharge c;
    c.await = true;
    const std::uint32_t s = route_mds(hash, &t, rid, c);
    auto looked = cluster_.smds().lookup(np);
    // Directory emptiness is an every-shard probe: children may live on
    // any shard.
    const bool dir = looked.ok() && looked->is_dir;
    if (dir) c.fanout = MdsCharge::Fanout::all;
    t = mds_rpc(t, s, rid, c);
    st = cluster_.smds().unlink(np);
    double done = t;
    if (st.ok() && looked.ok() && !dir) {
      const std::uint64_t fid = looked->file_id;
      for (std::uint32_t server : cluster_.touched_servers(fid)) {
        done = std::max(done, cluster_.oss(server).serve_small_op(done, rid));
        cluster_.oss(server).forget(fid);
      }
      cluster_.drop_data(fid);
      cluster_.drop_locks(fid);
      cluster_.drop_touched(fid);
    }
    return done;
  });
  return st;
}

Status PfsClient::rename(const std::string& from, const std::string& to) {
  Status st;
  const std::uint64_t rid = mint_req();
  const std::string nf = NormalizePath(from);
  const std::string nt = NormalizePath(to);
  const std::uint64_t from_hash = giga::HashName(nf);
  const std::uint64_t to_hash = giga::HashName(nt);
  cluster_.scheduler().atomically(actor_, [&](double t) {
    ShardedMds& smds = cluster_.smds();
    st = smds.rename(nf, nt, t);
    const std::uint32_t s = route_mds(from_hash, &t, rid, {});
    t = mds_rpc(t, s, rid, {});
    // A cross-shard rename is two-phase: the destination's home shard
    // serves the install leg.
    if (smds.shard_of(smds.bitmap().partition_for(to_hash)) != s) {
      const std::uint32_t d = route_mds(to_hash, &t, rid, {});
      t = mds_rpc(t, d, rid, {});
    }
    return smds.settle_splits(t, rid);
  });
  return st;
}

double PfsClient::acquire_locks(std::uint64_t file_id, std::uint64_t off,
                                std::uint64_t len, double t,
                                WholeFileGrant* grant) {
  const PfsConfig& cfg = cluster_.config();
  if (cfg.locking == LockProtocol::none || len == 0) return t;

  if (cfg.locking == LockProtocol::whole_file) {
    auto& unit = cluster_.lock_unit(file_id, 0);
    double start = std::max(t, unit.free);
    const bool revoked = unit.holder != static_cast<std::uint32_t>(actor_) &&
                         unit.holder != PfsCluster::kNoHolder;
    if (revoked) start += cfg.lock_revoke_s;
    if (start > t) {
      if (revoked && c_lock_conflicts_) c_lock_conflicts_->add(1);
      if (h_lock_wait_) h_lock_wait_->add(start - t);
      if (obs::Context* ctx = cluster_.obs_ctx(); ctx && ctx->tracer) {
        ctx->tracer->complete(
            obs::kRankTrackBase + static_cast<std::uint32_t>(actor_), "lock_wait",
            "pfs", t, start, {obs::Arg::Int("file", file_id)});
      }
    }
    unit.holder = static_cast<std::uint32_t>(actor_);
    grant->arm(&unit, start);  // caller completes with the op's finish time
    return start;
  }

  // Extent tokens: conflicting units must be revoked from their holders.
  // Revocation callbacks to distinct holders go out in parallel, so a
  // conflicted write pays one revocation round trip, serialised after the
  // conflicting units' earliest transfer instants.
  const std::uint64_t first = off / cfg.lock_unit;
  const std::uint64_t last = (off + len - 1) / cfg.lock_unit;
  bool conflict = false;
  double transferable = t;
  for (std::uint64_t u = first; u <= last; ++u) {
    auto& unit = cluster_.lock_unit(file_id, u);
    if (unit.holder != static_cast<std::uint32_t>(actor_)) {
      if (unit.holder != PfsCluster::kNoHolder) {
        conflict = true;
        transferable = std::max(transferable, unit.free);
      }
    }
  }
  double granted = transferable;
  if (conflict) granted += cfg.lock_revoke_s;
  if (granted > t) {
    if (c_lock_conflicts_) c_lock_conflicts_->add(1);
    if (h_lock_wait_) h_lock_wait_->add(granted - t);
    if (obs::Context* ctx = cluster_.obs_ctx(); ctx && ctx->tracer) {
      ctx->tracer->complete(
          obs::kRankTrackBase + static_cast<std::uint32_t>(actor_), "lock_wait",
          "pfs", t, granted,
          {obs::Arg::Int("file", file_id), obs::Arg::Int("units", last - first + 1)});
    }
  }
  for (std::uint64_t u = first; u <= last; ++u) {
    auto& unit = cluster_.lock_unit(file_id, u);
    unit.holder = static_cast<std::uint32_t>(actor_);
    unit.free = granted;
  }
  return granted;
}

double PfsClient::serve_write_chunk(std::uint32_t server, std::uint64_t file_id,
                                    std::uint64_t off, std::uint64_t len,
                                    double at, bool wire, std::uint64_t rid) {
  const double done =
      cluster_.oss(server).serve_write(file_id, off, len, at, wire, rid);
  cluster_.touched_servers(file_id).insert(server);
  return done;
}

double PfsClient::execute_chunks(std::uint64_t file_id, std::uint64_t off,
                                 std::uint64_t len, bool is_read, double t,
                                 std::uint64_t rid, bool* ok) {
  double done = t;
  *ok = cluster_.for_each_chunk(
      file_id, off, len, [&](std::uint32_t server, std::uint64_t pos, std::uint64_t n) {
        const auto serve = [&](double at, bool wire) {
          return is_read ? cluster_.oss(server).serve_read(file_id, pos, n, at, wire, rid)
                         : serve_write_chunk(server, file_id, pos, n, at, wire, rid);
        };
        // Reads from a crashed server go to a surviving server once the
        // first attempt has timed out (the crash is detected, never
        // predicted) — the engine consults this from the second attempt on.
        const auto failover = [&](double at, bool* served) {
          const std::uint32_t alt = cluster_.survivor(server, at);
          *served = alt != server;
          if (!*served) return at;
          cluster_.fault()->note_failover(server, alt, at);
          return cluster_.oss(alt).serve_failover_read(file_id, pos, n, at, rid);
        };
        rpc::RequestEngine::Route route;
        route.queue = server;
        route.req_id = rid;
        bool served = true;
        done = std::max(
            done, engine_.execute(route, serve,
                                  is_read ? rpc::RequestEngine::FailoverRef(failover)
                                          : rpc::RequestEngine::FailoverRef(),
                                  t, cluster_.fault(), /*charge_wire=*/true, &served));
        return served;
      });
  return done;
}

Status PfsClient::write(FileHandle fh, std::uint64_t off,
                        std::span<const std::uint8_t> data) {
  OpenFile* f = get(fh);
  if (!f) return Errc::bad_handle;
  if (data.empty()) return Status::Ok();
  const PfsConfig& cfg = cluster_.config();
  Status st = Status::Ok();
  const std::uint64_t rid = mint_req();

  if (engine_.pipelined()) {
    cluster_.scheduler().atomically(actor_, [&](double t0) {
      WholeFileGrant whole;
      double t = t0;
      if (cfg.consistency == consist::ConsistencyModel::posix) {
        t = acquire_locks(f->file_id, off, data.size(), t0, &whole);
      } else if (c_lock_skips_) {
        c_lock_skips_->add(1);
      }
      // Async semantics: the payload lands and the size extends at
      // submission; a chunk that later exhausts its retries surfaces as
      // an io_error at the next fsync/close (and the bytes it covered
      // may be torn) — the O_DIRECT/AIO contract.
      if (auto* buf = cluster_.data_for(f->file_id, true)) buf->write(off, data);
      if (Inode* node = cluster_.smds().resolve(f->path, &f->inode)) {
        node->extend(off + data.size(), t);
      }
      cluster_.for_each_chunk(
          f->file_id, off, data.size(),
          [&](std::uint32_t server, std::uint64_t pos, std::uint64_t n) {
            rpc::RequestEngine::Request req;
            req.queue = server;
            req.req_id = rid;
            req.serve = [this, server, file_id = f->file_id, pos, n, rid](
                            double at, bool wire) {
              return serve_write_chunk(server, file_id, pos, n, at, wire, rid);
            };
            t = engine_.submit(std::move(req), t, cluster_.fault());
            return true;
          });
      // A pipelined holder cannot stamp the grant with a completion it
      // has not awaited: the whole-file token serialises submission
      // windows, not durable completion (which fsync still awaits).
      whole.complete(t);
      return t;
    });
    return st;
  }

  cluster_.scheduler().atomically(actor_, [&](double t0) {
    WholeFileGrant whole;
    double t = t0;
    if (cfg.consistency == consist::ConsistencyModel::posix) {
      t = acquire_locks(f->file_id, off, data.size(), t0, &whole);
    } else {
      // Relaxed models trade the lock charge for deferred visibility:
      // nothing is promised to other clients until close (session) or
      // sync (commit/mpiio) publishes it.
      if (c_lock_skips_) c_lock_skips_->add(1);
    }

    // Stripe the request over the servers; chunks proceed in parallel.
    bool ok = true;
    const double done = execute_chunks(f->file_id, off, data.size(),
                                       /*is_read=*/false, t, rid, &ok);
    if (!ok) st = Errc::io_error;
    whole.complete(done);

    // A failed write is failed wholesale: no payload lands and the MDS
    // size is not extended (the time spent trying is still charged).
    if (st.ok()) {
      if (auto* buf = cluster_.data_for(f->file_id, true)) buf->write(off, data);
      if (Inode* node = cluster_.smds().resolve(f->path, &f->inode)) {
        node->extend(off + data.size(), done);
      }
      if (recording_consist()) {
        // The span starts at the lock grant, not the call: waiting under
        // a conflicting lock is serialisation working, not a violation.
        record_consist_op("write", f->file_id, t, done, off, data.size(),
                          ConsistFp(data));
        if (cfg.consistency == consist::ConsistencyModel::posix) {
          record_consist_edge("pub", f->file_id, done);
        }
      }
    }
    return done;
  });
  return st;
}

double PfsClient::read_core(OpenFile* f, std::uint64_t off,
                            std::span<std::uint8_t> out, double t,
                            Result<std::size_t>* result, std::uint64_t rid) {
  const Inode* inode = cluster_.smds().resolve(f->path, &f->inode);
  if (!inode) {
    *result = Errc::not_found;
    return t;
  }
  const std::uint64_t size = inode->size;
  if (off >= size || out.empty()) {
    *result = static_cast<std::size_t>(0);
    return t;
  }
  const std::uint64_t len = std::min<std::uint64_t>(out.size(), size - off);

  bool ok = true;
  const double done =
      execute_chunks(f->file_id, off, len, /*is_read=*/true, t, rid, &ok);
  if (!ok) {
    *result = Errc::io_error;
    return done;
  }
  if (const auto* buf = cluster_.data_for(f->file_id, false)) {
    buf->read(off, out.subspan(0, len));
  } else if (recording_consist()) {
    // No payload buffer yet (file extended but never written here):
    // holes read as zeros, and the fingerprint must say so.
    std::fill(out.begin(), out.begin() + len, std::uint8_t{0});
  }
  *result = static_cast<std::size_t>(len);
  if (recording_consist() && len > 0) {
    record_consist_op("read", f->file_id, t, done, off, len,
                      ConsistFp(out.subspan(0, len)));
  }
  return done;
}

Result<std::size_t> PfsClient::read(FileHandle fh, std::uint64_t off,
                                    std::span<std::uint8_t> out) {
  OpenFile* f = get(fh);
  if (!f) return Errc::bad_handle;
  Result<std::size_t> result(static_cast<std::size_t>(0));
  const std::uint64_t rid = mint_req();

  cluster_.scheduler().atomically(actor_, [&](double t) {
    // A read is a synchronisation point: it queues behind everything
    // this client already submitted (read-after-write ordering), and any
    // asynchronous failure it observes is latched for the next
    // fsync/close to report.
    bool dok = true;
    t = engine_.drain(t, cluster_.fault(), &dok);
    if (!dok) pending_io_error_ = true;
    return read_core(f, off, out, t, &result, rid);
  });
  return result;
}

double PfsClient::flush_touched(std::uint64_t file_id, double t, Status* st,
                                std::uint64_t rid) {
  double done = t;
  for (std::uint32_t s : cluster_.touched_servers(file_id)) {
    rpc::RequestEngine::Route route;
    route.queue = s;
    // Availability wait, not a data RPC: flushes cannot fail over and
    // must not consume the injector's per-server drop stream.
    route.drop_eligible = false;
    route.req_id = rid;
    const auto flush = [&](double at, bool) {
      return cluster_.oss(s).flush(file_id, at);
    };
    bool ok = true;
    const double at = engine_.execute(route, flush, {}, t, cluster_.fault(),
                                      /*charge_wire=*/true, &ok);
    done = std::max(done, at);
    if (!ok) {
      // This server's dirty data cannot be forced out; keep flushing
      // the others so their state is durable, but report the failure.
      *st = Errc::io_error;
    }
  }
  return done;
}

Status PfsClient::fsync(FileHandle fh) {
  OpenFile* f = get(fh);
  if (!f) return Errc::bad_handle;
  Status st = Status::Ok();
  const std::uint64_t rid = mint_req();
  cluster_.scheduler().atomically(
      actor_, [&](double t) { return sync_core(f, t, &st, rid); });
  return st;
}

double PfsClient::sync_core(OpenFile* f, double t, Status* st, std::uint64_t rid) {
  const consist::ConsistencyModel model = cluster_.config().consistency;
  // The sync barrier: every queued chunk flushes, every in-flight
  // completion lands, and asynchronous write failures surface here.
  bool dok = true;
  t = engine_.drain(t, cluster_.fault(), &dok);
  if (!dok || pending_io_error_) {
    *st = Errc::io_error;
    pending_io_error_ = false;
  }
  double done = flush_touched(f->file_id, t, st, rid);
  if (st->ok() &&
      (model == consist::ConsistencyModel::commit ||
       model == consist::ConsistencyModel::mpiio)) {
    // Commit publishes at every sync with a full metadata op; mpiio's
    // collective sync-barrier-sync batches the exchange, so each
    // participant pays only a fraction of it.
    const double fraction =
        model == consist::ConsistencyModel::mpiio ? kMpiioSyncFraction : 1.0;
    done = cluster_.smds()
               .shard(cluster_.smds().home_shard(f->path))
               .publish(done, fraction, rid);
    if (recording_consist()) {
      record_consist_edge("sync", f->file_id, done);
      record_consist_edge("pub", f->file_id, done);
    }
  } else if (st->ok() && recording_consist()) {
    record_consist_edge("sync", f->file_id, done);
  }
  return done;
}

Status PfsClient::close(FileHandle fh) {
  OpenFile* f = get(fh);
  if (!f) return Errc::bad_handle;
  const consist::ConsistencyModel model = cluster_.config().consistency;
  Status st = Status::Ok();
  if (model == consist::ConsistencyModel::commit ||
      model == consist::ConsistencyModel::mpiio) {
    // Everything visible was already published at sync time; close is a
    // pure handle drop (this is where commit wins its throughput back).
    // A pipelined client still settles its window: in-flight work and
    // latched asynchronous failures cannot outlive the handle.
    if (engine_.pipelined()) {
      cluster_.scheduler().atomically(actor_, [&](double t) {
        bool dok = true;
        const double done = engine_.drain(t, cluster_.fault(), &dok);
        if (!dok || pending_io_error_) {
          st = Errc::io_error;
          pending_io_error_ = false;
        }
        return done;
      });
    }
    if (recording_consist()) record_consist_edge("close", f->file_id, now());
  } else {
    // fsync's flush, then, in the same admission (the payload store is
    // shared), the closed file's chunks give back their growth slack. The
    // trim charges no time; a commit/mpiio close above keeps the slack.
    const std::uint64_t sync_rid = mint_req();
    cluster_.scheduler().atomically(actor_, [&](double t) {
      const double done = sync_core(f, t, &st, sync_rid);
      if (auto* buf = cluster_.data_for(f->file_id, false)) buf->shrink_to_fit();
      return done;
    });
    if (st.ok() && model == consist::ConsistencyModel::session) {
      // Close-to-open: one metadata op publishes the session's writes.
      const std::uint64_t rid = mint_req();
      cluster_.scheduler().atomically(actor_, [&](double t) {
        const double done =
            cluster_.smds()
                .shard(cluster_.smds().home_shard(f->path))
                .publish(t + cluster_.config().rpc_latency_s, 1.0, rid);
        if (recording_consist()) {
          record_consist_edge("close", f->file_id, done);
          record_consist_edge("pub", f->file_id, done);
        }
        return done;
      });
    } else if (recording_consist()) {
      record_consist_edge("close", f->file_id, now());
    }
  }
  f->in_use = false;
  free_hint_ = std::min(free_hint_, static_cast<std::size_t>(fh));
  return st;
}

void PfsClient::compute(double seconds) {
  if (seconds > 0.0) cluster_.scheduler().advance(actor_, seconds);
}

Result<std::uint64_t> PfsClient::file_size(FileHandle fh) {
  OpenFile* f = get(fh);
  if (!f) return Errc::bad_handle;
  auto r = stat(f->path);
  if (!r.ok()) return r.error();
  return r->size;
}

}  // namespace pdsi::pfs
