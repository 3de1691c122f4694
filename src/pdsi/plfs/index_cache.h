// Container-level cache of merged global indexes.
//
// The N-to-1 restart storm has every reader rank re-open the same
// container and pay the same N-way index merge. Within one address space
// (a FUSE daemon, an I/O forwarding node, the simulator) that work is
// identical across opens, so the merged snapshot is cached per container
// and validated with a fingerprint of the live index droppings — any
// write that adds or grows a dropping changes the fingerprint and misses.
// Writers additionally invalidate their container on close, so the common
// rewrite cycle frees the stale snapshot immediately instead of waiting
// for LRU pressure.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdsi/plfs/index.h"

namespace pdsi::plfs {

/// Immutable product of one container index build, shared between the
/// Reader that built it and any cached re-opens.
struct IndexSnapshot {
  GlobalIndex index;
  std::vector<IndexEntry> raw_entries;   ///< merge-input entries (dropping-major)
  std::vector<std::string> droppings;    ///< absolute data-dropping paths by id
  std::uint64_t fingerprint = 0;         ///< FingerprintDroppings() at build
  std::uint64_t index_bytes = 0;         ///< index bytes read to build it
};

/// Thread-safe LRU map: container path -> latest merged snapshot. Lookups
/// require the caller's freshly computed fingerprint to match, so a stale
/// entry can serve at most wasted memory, never stale data.
class IndexCache {
 public:
  explicit IndexCache(std::size_t max_cached_entries = 64)
      : max_entries_(max_cached_entries == 0 ? 1 : max_cached_entries) {}

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Returns the cached snapshot iff one exists for `container` and its
  /// fingerprint matches; bumps it to most-recently-used.
  std::shared_ptr<const IndexSnapshot> find(const std::string& container,
                                            std::uint64_t fingerprint);

  /// Installs (or replaces) the snapshot for `container`, evicting the
  /// least-recently-used container beyond the bound.
  void put(const std::string& container,
           std::shared_ptr<const IndexSnapshot> snapshot);

  /// Drops the entry for `container` (writer close, unlink).
  void invalidate(const std::string& container);

  std::size_t size() const;

  /// Lifetime totals, independent of any obs registry (tests, reporting).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const IndexSnapshot>>>;

  mutable std::mutex mu_;
  std::size_t max_entries_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> by_path_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pdsi::plfs
