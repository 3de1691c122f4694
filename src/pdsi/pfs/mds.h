// Metadata server: a single ordered namespace behind one service queue.
//
// Production parallel file systems of the era funnelled namespace
// operations through one metadata server; the create-storm serialisation
// this causes is the motivation for GIGA+. pfs::ShardedMds runs one Mds
// per GIGA+ shard; at one shard it is exactly this lone MDS, the
// 1-server anchor of the Fig. 7 and ext19 create storms.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <string>
#include <vector>

#include "pdsi/common/result.h"
#include "pdsi/obs/obs.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/pfs/config.h"

namespace pdsi::pfs {

struct Inode {
  std::uint64_t file_id = 0;
  bool is_dir = false;
  std::uint64_t size = 0;      ///< logical EOF (files)
  double mtime = 0.0;
};

/// Normalises a path: leading '/', no trailing '/' (except root), no empty
/// components. Throws std::invalid_argument on malformed input.
std::string NormalizePath(std::string_view path);

/// Parent directory of a normalised path ("/" for top-level entries).
std::string ParentPath(const std::string& normalized);

class Mds {
 public:
  /// `ctx` (optional) traces every charged op on track obs::kMdsTrack and
  /// feeds the mds.* instruments. `shard`/`num_shards` place this MDS in
  /// a sharded namespace (pdsi::pfs::ShardedMds): file ids are allocated
  /// from the interleaved stream shard+1, shard+1+N, ... so ids stay
  /// globally unique, and with num_shards > 1 the instruments and trace
  /// track are suffixed per shard ("mds.s<k>.*", track kMdsTrack + k).
  /// The single-shard default is byte-identical to the historical MDS.
  explicit Mds(const PfsConfig& cfg, obs::Context* ctx = nullptr,
               std::uint32_t shard = 0, std::uint32_t num_shards = 1);

  // -- Timed RPC wrappers: charge one metadata service slot and return
  //    the completion time. Call only inside scheduler atomically blocks.
  //    `req` (0 = unattributed) is the client's causal request id; it is
  //    stamped on the service span only when a live monitor subscribes,
  //    so unmonitored traces stay byte-identical.
  double charge(double now, std::uint64_t req = 0);

  /// Charges a fraction of one op (group operations amortise the MDS
  /// work over the participants).
  double charge_fraction(double now, double fraction, std::uint64_t req = 0);

  /// Visibility publication for the relaxed consistency models: one
  /// metadata op (scaled by `fraction`) that makes a client's pending
  /// writes promised to others — charged at close under session, at
  /// fsync under commit, amortised across the collective under mpiio.
  /// Instruments lazily ("mds.publishes"), so runs that never publish
  /// keep their metric dumps byte-identical.
  double publish(double now, double fraction = 1.0, std::uint64_t req = 0);

  /// Namespace mutations additionally serialise on the parent directory's
  /// lock (concurrent creates into one directory contend; this is what
  /// PLFS hostdir fan-out spreads out).
  double charge_dir(const std::string& parent, double now,
                    std::uint64_t req = 0);

  // -- Namespace operations (zero-cost state transitions; pair them with
  //    charge() from the client layer).
  Result<Inode> create(const std::string& path, double mtime);
  Result<Inode> lookup(const std::string& path) const;
  Status mkdir(const std::string& path);
  Status unlink(const std::string& path);
  /// POSIX file rename: `from == to` succeeds as a no-op; otherwise the
  /// destination inode's mtime is stamped with `mtime`.
  Status rename(const std::string& from, const std::string& to, double mtime);
  Result<std::vector<std::string>> readdir(const std::string& path) const;

  /// Updates the authoritative size if the write extended the file.
  void extend(const std::string& path, std::uint64_t new_size, double mtime);

  /// True when any entry lives strictly below directory `normalized`
  /// (the unlink emptiness probe — a prefix scan, so siblings that sort
  /// between the directory and its children, like "/a.x" between "/a"
  /// and "/a/b", cannot fool it).
  bool has_children(const std::string& normalized) const;

  // -- Sharded-namespace support (pdsi::pfs::ShardedMds) --
  /// Installs an inode verbatim (directory replication, split
  /// migration); overwrites any existing entry, allocates no id.
  void install(const std::string& normalized, const Inode& inode);
  /// Removes an entry verbatim and returns it (split migration). False
  /// when absent.
  bool take(const std::string& normalized, Inode* out);
  /// Reserves `cost` seconds of this shard's service queue for split
  /// migration work, tracing one span covering the transfer of `moved`
  /// entries of partition `partition`.
  double migrate(double now, double cost, std::uint64_t partition,
                 std::uint64_t moved, std::uint64_t req = 0);

  std::size_t entry_count() const { return namespace_.size(); }

 private:
  const PfsConfig& cfg_;
  sim::SimResource service_;
  std::unordered_map<std::string, sim::SimResource> dir_locks_;
  std::uint32_t track_ = 0;
  std::string iprefix_ = "mds.";  ///< instrument prefix ("mds.s<k>." sharded)
  std::uint64_t next_file_id_ = 1;
  std::uint64_t id_stride_ = 1;
  std::map<std::string, Inode> namespace_;  ///< ordered for readdir scans

  obs::Context* ctx_ = nullptr;
  obs::Counter* c_ops_ = nullptr;
  obs::Histogram* h_lat_ = nullptr;
  obs::Counter* c_publishes_ = nullptr;  ///< created on first publish()
};

}  // namespace pdsi::pfs
