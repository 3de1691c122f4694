// Metadata server: the namespace (pfs::Namespace) behind one service
// queue, with per-directory locks.
//
// Production parallel file systems of the era funnelled namespace
// operations through one metadata server; the create-storm serialisation
// this causes is the motivation for GIGA+. pfs::ShardedMds runs one Mds
// per GIGA+ shard; at one shard it is exactly this lone MDS, the
// 1-server anchor of the Fig. 7 and ext19 create storms.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pdsi/obs/obs.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/pfs/config.h"
#include "pdsi/pfs/namespace.h"

namespace pdsi::pfs {

/// The namespace operations are Namespace's own (zero-cost state
/// transitions; the client layer pairs them with the charges below).
class Mds : public Namespace {
 public:
  /// `ctx` (optional) traces every charged op on track obs::kMdsTrack and
  /// feeds the mds.* instruments. `shard`/`num_shards` place this MDS in
  /// a sharded namespace (pdsi::pfs::ShardedMds): shard k allocates file
  /// ids consecutively from 1 + (k << 40), so ids stay globally unique,
  /// round-robin placement (which starts a file at id mod num_oss) still
  /// spreads each shard's files over every OSS, and ids stay below 2^53
  /// (exact as trace args). With num_shards > 1 the instruments and trace
  /// track are suffixed per shard ("mds.s<k>.*", track kMdsTrack + k).
  /// The single-shard default is byte-identical to the historical MDS.
  explicit Mds(const PfsConfig& cfg, obs::Context* ctx = nullptr,
               std::uint32_t shard = 0, std::uint32_t num_shards = 1);

  // -- Timed RPC wrappers: charge one metadata service slot and return
  //    the completion time. Call only inside scheduler atomically blocks.
  //    `req` (0 = unattributed) is the client's causal request id; it is
  //    stamped on the service span only when a live monitor subscribes,
  //    so unmonitored traces stay byte-identical.
  //    A `fraction` below 1 charges that share of one op, traced as a
  //    "group_op" (group operations amortise the MDS work over the
  //    participants); a whole op is traced as an "op".
  double charge(double now, std::uint64_t req = 0, double fraction = 1.0);

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
  double charge_dir(std::string_view parent, double now,
                    std::uint64_t req = 0);

  // -- Sharded-namespace support (pdsi::pfs::ShardedMds) --
  /// Reserves `cost` seconds of this shard's service queue for split
  /// migration work, tracing one span covering the transfer of `moved`
  /// entries of partition `partition`.
  double migrate(double now, double cost, std::uint64_t partition,
                 std::uint64_t moved, std::uint64_t req = 0);

 private:
  const PfsConfig& cfg_;
  sim::SimResource service_;
  /// Hashes a std::string_view key (a parent path) without building a
  /// string, so a directory lock is found without a copy.
  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, sim::SimResource, PathHash, std::equal_to<>>
      dir_locks_;
  std::uint32_t track_ = 0;
  std::string iprefix_ = "mds.";  ///< instrument prefix ("mds.s<k>." sharded)

  obs::Context* ctx_ = nullptr;
  obs::Counter* c_ops_ = nullptr;
  obs::Histogram* h_lat_ = nullptr;
  obs::Counter* c_publishes_ = nullptr;  ///< created on first publish()
};

}  // namespace pdsi::pfs
