#include "pdsi/pfs/sharded_mds.h"

#include <algorithm>
#include <string_view>

namespace pdsi::pfs {

namespace {
/// Cost to migrate one entry between shards during a split.
constexpr double kMigrateEntryS = 4e-6;
}  // namespace

ShardedMds::ShardedMds(const PfsConfig& cfg, obs::Context* ctx) : cfg_(cfg) {
  const std::uint32_t n = std::max<std::uint32_t>(1, cfg.num_mds_shards);
  shards_.reserve(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    shards_.push_back(std::make_unique<Mds>(cfg, ctx, k, n));
  }
  depth_[0] = 0;
  parts_[0] = {};
}

std::uint64_t ShardedMds::total_files() const {
  std::uint64_t n = 0;
  for (const auto& [part, bucket] : parts_) n += bucket.size();
  return n;
}

Result<Inode> ShardedMds::create(const std::string& path, double mtime) {
  if (num_shards() == 1) return shards_[0]->create(path, mtime);
  const std::string p = NormalizePath(path);
  const std::uint64_t hash = giga::HashName(p);
  const std::uint32_t part = bitmap_.partition_for(hash);
  // The home shard runs the real checks: a name collision (file or
  // replicated directory) and the parent directory both live there.
  auto r = shards_[shard_of(part)]->create(p, mtime);
  if (!r.ok()) return r;
  parts_[part].emplace(p, hash);
  maybe_split(part);
  return r;
}

Result<Inode> ShardedMds::lookup(const std::string& path) const {
  if (num_shards() == 1) return shards_[0]->lookup(path);
  const std::string p = NormalizePath(path);
  return shards_[home_shard(p)]->lookup(p);
}

Status ShardedMds::mkdir(const std::string& path) {
  if (num_shards() == 1) return shards_[0]->mkdir(path);
  const std::string p = NormalizePath(path);
  // The home shard allocates the id and runs the exists/parent checks;
  // the directory then replicates everywhere with that one id so every
  // shard can check parents locally and list its local children.
  const std::uint32_t home = home_shard(p);
  const Status st = shards_[home]->mkdir(p);
  if (!st.ok()) return st;
  const auto made = shards_[home]->lookup(p);
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    if (s != home) shards_[s]->install(p, *made);
  }
  return Status::Ok();
}

Status ShardedMds::unlink(const std::string& path) {
  if (num_shards() == 1) return shards_[0]->unlink(path);
  const std::string p = NormalizePath(path);
  if (p == "/") return Errc::not_supported;  // the root is not unlinkable
  const std::uint32_t part = bitmap_.partition_for(giga::HashName(p));
  const std::uint32_t home = shard_of(part);
  const auto r = shards_[home]->lookup(p);
  if (!r.ok()) return Errc::not_found;
  if (r->is_dir) {
    // Emptiness is a cluster property: any shard may hold children.
    for (const auto& s : shards_) {
      if (s->has_children(p)) return Errc::not_empty;
    }
    for (const auto& s : shards_) s->take(p, nullptr);
    return Status::Ok();
  }
  const Status st = shards_[home]->unlink(p);
  if (st.ok()) parts_[part].erase(p);
  return st;
}

Status ShardedMds::rename(const std::string& from, const std::string& to,
                          double mtime) {
  if (num_shards() == 1) return shards_[0]->rename(from, to, mtime);
  const std::string f = NormalizePath(from);
  const std::string t = NormalizePath(to);
  const std::uint64_t to_hash = giga::HashName(t);
  const std::uint32_t from_part = bitmap_.partition_for(giga::HashName(f));
  const std::uint32_t to_part = bitmap_.partition_for(to_hash);
  Mds& src = *shards_[shard_of(from_part)];
  Mds& dst = *shards_[shard_of(to_part)];
  const auto r = src.lookup(f);
  if (!r.ok()) return Errc::not_found;
  if (r->is_dir) return Errc::not_supported;  // file rename only
  if (f == t) return Status::Ok();  // POSIX: same-path rename is a no-op
  if (dst.lookup(t).ok()) return Errc::exists;
  const auto parent = dst.lookup(ParentPath(t));
  if (!parent.ok()) return Errc::not_found;
  if (!parent->is_dir) return Errc::not_dir;
  Inode node = *r;
  node.mtime = mtime;
  src.take(f, nullptr);
  dst.install(t, node);
  parts_[from_part].erase(f);
  parts_[to_part].emplace(t, to_hash);
  maybe_split(to_part);
  return Status::Ok();
}

Result<std::vector<std::string>> ShardedMds::readdir(
    const std::string& path) const {
  if (num_shards() == 1) return shards_[0]->readdir(path);
  const std::string p = NormalizePath(path);
  const auto ino = lookup(p);
  if (!ino.ok()) return ino.error();
  if (!ino->is_dir) return Errc::not_dir;
  // Scatter-gather: every shard lists its local children; the merge
  // restores the global sort order and dedups replicated directories.
  std::vector<std::string> names;
  for (const auto& s : shards_) {
    const auto r = s->readdir(p);
    if (r.ok()) names.insert(names.end(), r->begin(), r->end());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

Inode* ShardedMds::resolve(const std::string& normalized, InodeRef* ref) {
  if (ref->inode && ref->shard->generation() == ref->generation) {
    return ref->inode;
  }
  Mds& home = num_shards() == 1 ? *shards_[0] : *shards_[home_shard(normalized)];
  *ref = {home.find(normalized), &home, home.generation()};
  return ref->inode;
}

void ShardedMds::maybe_split(std::uint32_t part) {
  auto bucket_it = parts_.find(part);
  if (bucket_it == parts_.end() ||
      bucket_it->second.size() < cfg_.mds_split_threshold) {
    return;
  }
  const std::uint32_t d = depth_[part];
  const std::uint32_t child = giga::SplitChild(part, d);
  const std::uint64_t child_mask = (1ULL << (d + 1)) - 1;
  const std::uint32_t src_shard = shard_of(part);
  const std::uint32_t dst_shard = shard_of(child);

  parts_[child];  // materialise before taking references (rehash safety)
  auto& bucket = parts_[part];
  auto& dest = parts_[child];
  std::uint64_t moved = 0;
  for (auto it = bucket.begin(); it != bucket.end();) {
    if ((it->second & child_mask) == child) {
      if (dst_shard != src_shard) {
        Inode node;
        if (shards_[src_shard]->take(it->first, &node)) {
          shards_[dst_shard]->install(it->first, node);
        }
      }
      dest.emplace(it->first, it->second);
      it = bucket.erase(it);
      ++moved;
    } else {
      ++it;
    }
  }
  depth_[part] = d + 1;
  depth_[child] = d + 1;
  bitmap_.set(child);
  ++splits_;
  pending_.push_back({part, child, moved});
}

double ShardedMds::settle_splits(double now, std::uint64_t req) {
  if (pending_.empty()) return now;
  double done = now;
  for (const auto& s : pending_) {
    const double cost =
        static_cast<double>(s.moved) * kMigrateEntryS;
    // Migration occupies both ends (read out of the source, install into
    // the destination), delaying whatever triggered the split.
    const double a = shards_[shard_of(s.partition)]->migrate(
        now, cost, s.child, s.moved, req);
    const double b =
        shards_[shard_of(s.child)]->migrate(now, cost, s.child, s.moved, req);
    done = std::max(done, std::max(a, b));
  }
  pending_.clear();
  return done;
}

bool ShardedMds::check_placement_invariant() const {
  // One pass over the index: every file's partition, and its home shard.
  std::unordered_map<std::string_view, std::uint32_t> home;
  home.reserve(total_files());
  for (const auto& [part, bucket] : parts_) {
    for (const auto& [p, hash] : bucket) {
      if (bitmap_.partition_for(hash) != part) return false;
      home.emplace(p, shard_of(part));
    }
  }
  // One pass over each shard: an indexed file found on a shard must be
  // home there, and every indexed file must be found.
  std::size_t at_home = 0;
  bool stray = false;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    shards_[s]->for_each_entry([&](const std::string& path, const Inode&) {
      const auto it = home.find(path);
      if (it == home.end()) return;
      if (it->second == s) {
        ++at_home;
      } else {
        stray = true;
      }
    });
  }
  return !stray && at_home == home.size();
}

}  // namespace pdsi::pfs
