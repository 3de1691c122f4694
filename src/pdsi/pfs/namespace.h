// Namespace: the one ordered path -> inode map and the POSIX rules over it.
//
// Every in-memory store in the repo keeps its directory tree here:
// pfs::Mds (one per metadata shard) adds the service queue and directory
// locks around it, plfs::MemBackend adds file payloads keyed by file id,
// and the tiering backend adds its engine. The operations are zero-cost
// state transitions and are not synchronised; owners serialise them
// (scheduler atomically sections, or a backend mutex).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pdsi/common/result.h"

namespace pdsi::pfs {

struct Inode {
  std::uint64_t file_id = 0;
  bool is_dir = false;
  std::uint64_t size = 0;      ///< logical EOF (files)
  double mtime = 0.0;

  /// A write ending at `end` landed at time `at`: a file grows to cover
  /// it and takes `at` as its mtime; a directory is left alone.
  void extend(std::uint64_t end, double at) {
    if (is_dir) return;
    if (end > size) size = end;
    mtime = at;
  }
};

/// Normalises a path: leading '/', no trailing '/' (except root), no empty
/// components. Throws std::invalid_argument on malformed input.
std::string NormalizePath(std::string_view path);

/// `path` in NormalizePath's form: `path` itself when it already is, else
/// its normal form stored in *own. A layer calls this at its boundary, so a
/// path its caller normalised is neither normalised nor copied again.
const std::string& Normalized(const std::string& path, std::string* own);

/// Parent directory of a normalised path ("/" for top-level entries): a
/// view into `normalized`, which must outlive it.
std::string_view ParentPath(std::string_view normalized);

/// The root directory always exists. create/mkdir need an existing parent
/// directory (not_found when it is missing, not_dir when it is a file);
/// unlink refuses the root (not_supported) and a directory with children
/// (not_empty); rename moves files only, and a same-path rename succeeds.
/// Paths are normalised on entry, except where a parameter is named
/// `normalized`.
class Namespace {
 public:
  /// File ids are minted consecutively from first_id (directories take
  /// ids too); a sharded namespace gives each shard its own id range.
  explicit Namespace(std::uint64_t first_id = 1);

  Result<Inode> create(const std::string& path, double mtime);
  Result<Inode> lookup(const std::string& path) const;
  Status mkdir(const std::string& path);
  /// Removes a file or an empty directory; `removed` (optional) receives
  /// the inode that went away.
  Status unlink(const std::string& path, Inode* removed = nullptr);
  /// POSIX file rename: `from == to` succeeds as a no-op; otherwise the
  /// destination inode's mtime is stamped with `mtime`.
  Status rename(const std::string& from, const std::string& to, double mtime);
  Result<std::vector<std::string>> readdir(const std::string& path) const;

  /// The entry at `normalized`, or nullptr. The pointer stays valid, and
  /// keeps naming that path's entry, while generation() is unchanged;
  /// writes extend a file through it (Inode::extend).
  Inode* find(std::string_view normalized);
  /// Bumped whenever an entry is erased or replaced (unlink, rename, take,
  /// install). Creates, mkdirs and extends leave it alone: they move no
  /// existing entry.
  std::uint64_t generation() const { return generation_; }

  /// True when any entry lives strictly below directory `normalized`
  /// (the unlink emptiness probe — a prefix scan, so siblings that sort
  /// between the directory and its children, like "/a.x" between "/a"
  /// and "/a/b", cannot fool it).
  bool has_children(const std::string& normalized) const;

  /// Installs an inode verbatim (directory replication, split
  /// migration); overwrites any existing entry, allocates no id.
  void install(const std::string& normalized, const Inode& inode);
  /// Removes an entry verbatim and returns it (split migration). False
  /// when absent.
  bool take(const std::string& normalized, Inode* out);

  /// Calls `fn(path, inode)` for every entry, in path order.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    for (const auto& [path, inode] : entries_) fn(path, inode);
  }

 private:
  /// create/mkdir: the existence and parent checks, then a fresh id. One
  /// descent finds both the new entry's place and whether it exists.
  Result<Inode> add(const std::string& path, bool is_dir, double mtime);

  /// Ordered for readdir scans; std::less<> finds a std::string_view key
  /// (a parent path) without building a string.
  std::map<std::string, Inode, std::less<>> entries_;
  std::uint64_t next_file_id_;
  std::uint64_t generation_ = 0;
};

}  // namespace pdsi::pfs
