// GIGA+ addressing algebra (§4.2.2, Fig. 7; Patil & Gibson).
//
// A directory is hash-partitioned over metadata servers. Partitions split
// incrementally as they fill: partition p at radix depth d covers the
// hash-suffix equivalence class (h mod 2^d == p); splitting moves the
// upper half of its class to partition p + 2^d. The directory's split
// history forms a bitmap that clients cache WITHOUT cache-consistency
// traffic — a stale client may address the wrong server, which replies
// with its (fresher) bitmap and the client retries.
//
// This module is only that algebra: the bitmap, the name hash and the
// partition depth/child arithmetic. The directory itself — partitions
// on metadata shards, splits with entry migration, stale-client bounces
// and the placement invariant — is pdsi::pfs::ShardedMds and
// pdsi::pfs::PfsClient, which the Fig. 7 bench runs.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace pdsi::giga {

/// Split-history bitmap: bit p set means partition p exists.
class Bitmap {
 public:
  Bitmap() { set(0); }  // partition 0 always exists

  void set(std::uint32_t p);
  bool test(std::uint32_t p) const;
  std::uint32_t highest() const;

  /// Partition index for a filename hash under this bitmap: walk down
  /// from the deepest radix until the partition exists.
  std::uint32_t partition_for(std::uint64_t hash) const;

  /// Merge knowledge from another bitmap (bitwise or).
  void merge(const Bitmap& other);

  bool operator==(const Bitmap& other) const;

 private:
  std::vector<std::uint64_t> words_ = std::vector<std::uint64_t>(1, 0);
};

std::uint64_t HashName(std::string_view name);

/// The radix depth of partition p: number of bitmap doublings it took to
/// create it (depth(0)=0, depth(1)=1, depth(2..3)=2, depth(4..7)=3, ...).
std::uint32_t PartitionDepth(std::uint32_t p);

/// Sibling created when partition p at depth d splits: p + 2^d.
std::uint32_t SplitChild(std::uint32_t p, std::uint32_t depth);

}  // namespace pdsi::giga
