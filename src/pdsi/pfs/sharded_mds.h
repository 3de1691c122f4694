// ShardedMds: the namespace hash-partitioned over N metadata shards,
// GIGA+-style (§4.2.2; Patil & Gibson).
//
// The single pfs::Mds serialises every create behind one service queue —
// the create-storm bottleneck the paper motivates GIGA+ for. Here the
// namespace hash space is carved into partitions (partition p at radix
// depth d covers hashes with h mod 2^d == p); partition p lives on shard
// p mod N, and splits into p + 2^d once it fills past
// PfsConfig::mds_split_threshold, migrating the upper half of its hash
// class (possibly to another shard). The split history is a
// giga::Bitmap; clients cache it WITHOUT consistency traffic and are
// lazily corrected: a stale client addresses the wrong shard, which
// serves (and charges) the bounced request, replies with its fresh
// bitmap rows, and the client merges + retries.
//
// Layout rules:
//  - Files live only on their home shard (partition_for of the path
//    hash). Beside the bitmap this keeps only a depth and a file count
//    per partition: a count says when a partition is full, and a split
//    finds its movers in one pass over the source shard's namespace, so
//    it costs O(entries on that shard) while a create costs no index
//    insert.
//  - Directories are replicated on every shard with one file id, so each
//    shard can run parent checks locally and list its local children;
//    readdir is a scatter-gather merge and directory-unlink emptiness is
//    an every-shard probe.
//  - Shard k mints file ids consecutively from 1 + (k << 40), so ids
//    stay globally unique for placement/locks/data buffers and each
//    shard's files still spread over every OSS (see Mds).
//
// num_mds_shards == 1 (the default) degenerates to the historical lone
// MDS byte-for-byte: every op forwards to shard 0 unrouted, no partition
// ever splits, and no per-shard instruments or tracks are created.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pdsi/common/result.h"
#include "pdsi/giga/giga.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/config.h"
#include "pdsi/pfs/mds.h"

namespace pdsi::pfs {

class ShardedMds {
 public:
  ShardedMds(const PfsConfig& cfg, obs::Context* ctx = nullptr);

  ShardedMds(const ShardedMds&) = delete;
  ShardedMds& operator=(const ShardedMds&) = delete;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  Mds& shard(std::uint32_t i) { return *shards_[i]; }
  const Mds& shard(std::uint32_t i) const { return *shards_[i]; }

  /// Which shard hosts partition p (round-robin over shards).
  std::uint32_t shard_of(std::uint32_t partition) const {
    return partition % num_shards();
  }
  /// The authoritative split-history bitmap (what a bounced request's
  /// reply carries back to the client for merging).
  const giga::Bitmap& bitmap() const { return bitmap_; }
  /// True when `partition` still covers `hash` under the authoritative
  /// bitmap — the server-side staleness check for a client-addressed op.
  bool fresh(std::uint32_t partition, std::uint64_t hash) const {
    return bitmap_.partition_for(hash) == partition;
  }
  /// Home shard of a normalized path under the authoritative bitmap.
  std::uint32_t home_shard(const std::string& normalized) const {
    return shard_of(bitmap_.partition_for(giga::HashName(normalized)));
  }

  std::uint64_t splits() const { return splits_; }
  /// Total file entries (directories excluded) that the shards hold, at
  /// any shard count: one pass over every shard, for checks only.
  std::uint64_t total_files() const;

  // -- Authoritative namespace operations. These route internally by the
  //    authoritative bitmap, so correctness never depends on any client's
  //    cached view; the client's cache governs only where charges land.
  //    All are zero-cost state transitions (pair with shard charges),
  //    called inside scheduler atomically sections.
  Result<Inode> create(const std::string& path, double mtime);
  /// create() of a path already in NormalizePath's form, with its
  /// giga::HashName: a client that routed the op by them passes both,
  /// and the raw-path create() computes them once and forwards here.
  Result<Inode> create(const std::string& normalized, std::uint64_t hash,
                       double mtime);
  Result<Inode> lookup(const std::string& path) const;
  Status mkdir(const std::string& path);
  Status unlink(const std::string& path);
  Status rename(const std::string& from, const std::string& to, double mtime);
  Result<std::vector<std::string>> readdir(const std::string& path) const;

  /// An open file's cached answer to lookup(): the entry and the shard
  /// namespace that holds it, valid while that namespace's generation is
  /// the one recorded.
  struct InodeRef {
    Inode* inode = nullptr;
    const Namespace* shard = nullptr;
    std::uint64_t generation = 0;
  };
  /// lookup() of a normalized path for a caller that asks again and
  /// again: returns the cached entry while the shard holding it has
  /// erased or replaced nothing since, else looks the path up afresh.
  /// nullptr when the path is absent (then nothing is cached). A split
  /// that moves the entry takes it from its shard, so the reference
  /// follows the file to its new home.
  Inode* resolve(const std::string& normalized, InodeRef* ref);

  /// Charges any splits the preceding create/rename triggered: each one
  /// reserves a per-moved-entry migration cost on both the source and
  /// destination shard (tracing "split_migrate" spans) and the caller's
  /// clock waits for the migration — in GIGA+ the triggering create
  /// completes only once its partition has split. Returns `now` untouched
  /// when nothing is pending (always, at one shard).
  double settle_splits(double now, std::uint64_t req = 0);

  /// Invariant check (tests, fig07, perfbench): every file on a shard is
  /// home there under the current bitmap, and the files found per
  /// partition match its count. One pass over each shard. True at one
  /// shard, where every file is home and no count is kept.
  bool check_placement_invariant() const;

 private:
  /// Splits partition `part` if it filled past the threshold: state moves
  /// immediately, the timing charge is queued for settle_splits.
  void maybe_split(std::uint32_t part);

  const PfsConfig& cfg_;
  std::vector<std::unique_ptr<Mds>> shards_;
  giga::Bitmap bitmap_;
  /// A live partition's radix depth and file count.
  struct Partition {
    std::uint32_t depth = 0;
    std::uint64_t files = 0;
  };
  /// Indexed by partition number; the bitmap says which entries are live.
  std::vector<Partition> partitions_;
  std::uint64_t splits_ = 0;

  struct PendingSplit {
    std::uint32_t partition = 0;
    std::uint32_t child = 0;
    std::uint64_t moved = 0;
  };
  std::vector<PendingSplit> pending_;
};

}  // namespace pdsi::pfs
