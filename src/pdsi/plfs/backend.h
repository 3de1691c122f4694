// Storage backend abstraction under PLFS.
//
// PLFS is middleware: it rearranges the application's writes into
// per-rank logs but stores those logs through an ordinary file interface.
// Four backends implement that interface:
//   * MemBackend   — in-process store for fast, deterministic unit tests;
//   * PosixBackend — a real directory tree (the FUSE-deployment analogue);
//   * PfsBackend   — the simulated parallel file system, which both moves
//                    real bytes and charges virtual time (benchmarks);
//   * TierBackend  — the hot/warm/cold tiering engine, whose hot tier is
//                    the burst buffer's staging flash (tier/tier_backend.h).
// MemBackend, TierBackend and the simulated PFS's metadata server keep
// their directory trees in a pfs::Namespace, so all but PosixBackend
// answer namespace calls with the same rules and error codes.
//
// Thread-safety: backends are called concurrently by rank threads and must
// be internally synchronised (MemBackend/PosixBackend/TierBackend) or rely
// on the virtual-time scheduler's serialisation (PfsBackend, one instance
// per rank over a shared cluster).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pdsi/common/result.h"

namespace pdsi::plfs {

using BackendHandle = int;

class Backend {
 public:
  virtual ~Backend() = default;

  /// Creates a directory. Errc::exists if present (callers racing to make
  /// container hostdirs treat that as success).
  virtual Status mkdir(const std::string& path) = 0;

  virtual Result<BackendHandle> create(const std::string& path) = 0;
  virtual Result<BackendHandle> open(const std::string& path) = 0;

  virtual Status write(BackendHandle h, std::uint64_t off,
                       std::span<const std::uint8_t> data) = 0;
  /// Bytes read; short count at EOF.
  virtual Result<std::size_t> read(BackendHandle h, std::uint64_t off,
                                   std::span<std::uint8_t> out) = 0;
  virtual Result<std::uint64_t> size(BackendHandle h) = 0;
  virtual Status fsync(BackendHandle h) = 0;
  virtual Status close(BackendHandle h) = 0;

  /// Size of the file at `path` without keeping it open — the reader's
  /// dropping-fingerprint stat pass. The default round-trips through
  /// open/size/close; backends with a cheaper stat override it.
  virtual Result<std::uint64_t> stat_size(const std::string& path) {
    auto h = open(path);
    if (!h.ok()) return h.error();
    auto sz = size(*h);
    close(*h);
    if (!sz.ok()) return sz.error();
    return *sz;
  }

  virtual Result<std::vector<std::string>> readdir(const std::string& path) = 0;
  /// Removes a file or an empty directory.
  virtual Status unlink(const std::string& path) = 0;
  virtual Status rename(const std::string& from, const std::string& to) = 0;
  virtual Result<bool> is_dir(const std::string& path) = 0;
  virtual Result<bool> exists(const std::string& path) = 0;

  /// Charges client-side CPU time (index decode/merge) to whatever clock
  /// this backend lives on. Real backends ignore it (wall time is
  /// measured directly); the simulated backend advances virtual time.
  virtual void compute(double /*seconds*/) {}

  /// The clock this backend lives on, for middleware instrumentation.
  /// Simulated backends report virtual time; real backends have no
  /// meaningful shared clock and return 0 (spans collapse to instants).
  virtual double now() const { return 0.0; }
};

/// Handle -> open path table of the in-process backends. A handle names a
/// path, not a file: the backend resolves it through its own namespace on
/// every call, so once that path is renamed away or unlinked the handle
/// goes bad. Handles reuse the lowest free slot. Not synchronised; callers
/// hold their own lock.
class HandleTable {
 public:
  BackendHandle open(std::string path) {
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      if (paths_[i].empty()) {
        paths_[i] = std::move(path);
        return static_cast<BackendHandle>(i);
      }
    }
    paths_.push_back(std::move(path));
    return static_cast<BackendHandle>(paths_.size() - 1);
  }

  /// The open path, or nullptr for a closed or out-of-range handle.
  const std::string* path(BackendHandle h) const {
    if (h < 0 || static_cast<std::size_t>(h) >= paths_.size()) return nullptr;
    return paths_[h].empty() ? nullptr : &paths_[h];
  }

  Status close(BackendHandle h) {
    if (!path(h)) return Errc::bad_handle;
    paths_[h].clear();
    return Status::Ok();
  }

 private:
  std::vector<std::string> paths_;  ///< "" = free slot
};

/// In-memory backend (tests). Internally synchronised.
std::unique_ptr<Backend> MakeMemBackend();

/// Real files rooted at `root` (must exist). Paths map 1:1 under the root.
std::unique_ptr<Backend> MakePosixBackend(const std::string& root);

}  // namespace pdsi::plfs
