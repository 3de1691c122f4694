#include "pdsi/pfs/sharded_mds.h"

#include <algorithm>

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
  partitions_.resize(1);  // partition 0 at depth 0
}

std::uint64_t ShardedMds::total_files() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    shard->for_each_entry([&](const std::string&, const Inode& node) {
      if (!node.is_dir) ++n;
    });
  }
  return n;
}

Result<Inode> ShardedMds::create(const std::string& path, double mtime) {
  std::string own;
  const std::string& p = Normalized(path, &own);
  return create(p, giga::HashName(p), mtime);
}

Result<Inode> ShardedMds::create(const std::string& normalized,
                                 std::uint64_t hash, double mtime) {
  if (num_shards() == 1) return shards_[0]->create(normalized, mtime);
  const std::uint32_t part = bitmap_.partition_for(hash);
  // The home shard runs the real checks: a name collision (file or
  // replicated directory) and the parent directory both live there.
  auto r = shards_[shard_of(part)]->create(normalized, mtime);
  if (!r.ok()) return r;
  ++partitions_[part].files;
  maybe_split(part);
  return r;
}

Result<Inode> ShardedMds::lookup(const std::string& path) const {
  if (num_shards() == 1) return shards_[0]->lookup(path);
  std::string own;
  const std::string& p = Normalized(path, &own);
  return shards_[home_shard(p)]->lookup(p);
}

Status ShardedMds::mkdir(const std::string& path) {
  if (num_shards() == 1) return shards_[0]->mkdir(path);
  std::string own;
  const std::string& p = Normalized(path, &own);
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
  std::string own;
  const std::string& p = Normalized(path, &own);
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
  if (st.ok()) --partitions_[part].files;
  return st;
}

Status ShardedMds::rename(const std::string& from, const std::string& to,
                          double mtime) {
  if (num_shards() == 1) return shards_[0]->rename(from, to, mtime);
  std::string own_from;
  std::string own_to;
  const std::string& f = Normalized(from, &own_from);
  const std::string& t = Normalized(to, &own_to);
  const std::uint32_t from_part = bitmap_.partition_for(giga::HashName(f));
  const std::uint32_t to_part = bitmap_.partition_for(giga::HashName(t));
  Mds& src = *shards_[shard_of(from_part)];
  Mds& dst = *shards_[shard_of(to_part)];
  const auto r = src.lookup(f);
  if (!r.ok()) return Errc::not_found;
  if (r->is_dir) return Errc::not_supported;  // file rename only
  if (f == t) return Status::Ok();  // POSIX: same-path rename is a no-op
  if (dst.find(t)) return Errc::exists;
  const Inode* parent = dst.find(ParentPath(t));
  if (!parent) return Errc::not_found;
  if (!parent->is_dir) return Errc::not_dir;
  Inode node = *r;
  node.mtime = mtime;
  src.take(f, nullptr);
  dst.install(t, node);
  --partitions_[from_part].files;
  ++partitions_[to_part].files;
  maybe_split(to_part);
  return Status::Ok();
}

Result<std::vector<std::string>> ShardedMds::readdir(
    const std::string& path) const {
  if (num_shards() == 1) return shards_[0]->readdir(path);
  std::string own;
  const std::string& p = Normalized(path, &own);
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
  if (partitions_[part].files < cfg_.mds_split_threshold) return;
  const std::uint32_t d = partitions_[part].depth;
  const std::uint32_t child = giga::SplitChild(part, d);
  const std::uint64_t child_mask = (1ULL << (d + 1)) - 1;
  Mds& src = *shards_[shard_of(part)];
  Mds& dst = *shards_[shard_of(child)];

  // One pass over the source shard finds the movers: its files whose hash
  // falls in the child's class. Only this partition's files can, since
  // every other partition covers a class disjoint from its own. They are
  // collected first, because moving them edits the map being scanned.
  std::uint64_t moved = 0;
  std::vector<std::string> movers;
  src.for_each_entry([&](const std::string& path, const Inode& node) {
    if (node.is_dir || (giga::HashName(path) & child_mask) != child) return;
    ++moved;
    if (&dst != &src) movers.push_back(path);
  });
  for (const std::string& path : movers) {
    Inode node;
    src.take(path, &node);
    dst.install(path, node);
  }
  if (child >= partitions_.size()) partitions_.resize(child + 1);
  partitions_[part] = {d + 1, partitions_[part].files - moved};
  partitions_[child] = {d + 1, moved};
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
  if (num_shards() == 1) return true;
  // One pass over each shard: a file found there must be home there, and
  // its partition's tally must end at that partition's count.
  std::vector<std::uint64_t> found(partitions_.size(), 0);
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    bool stray = false;
    shards_[s]->for_each_entry([&](const std::string& path, const Inode& node) {
      if (node.is_dir) return;
      const std::uint32_t part = bitmap_.partition_for(giga::HashName(path));
      if (shard_of(part) == s) {
        ++found[part];
      } else {
        stray = true;
      }
    });
    if (stray) return false;
  }
  for (std::size_t part = 0; part < partitions_.size(); ++part) {
    if (found[part] != partitions_[part].files) return false;
  }
  return true;
}

}  // namespace pdsi::pfs
