// Configuration of the simulated parallel file system substrate.
//
// Three personality presets model the lock-protocol differences between
// the production systems the report names (PanFS, Lustre, GPFS): all
// stripe data over object storage servers, but they differ in how
// concurrent writers to one file are serialised and in their penalty for
// unaligned writes — exactly the properties that make N-to-1 checkpoint
// patterns pathological and that PLFS routes around.
#pragma once

#include <cstdint>
#include <string>

#include "pdsi/common/units.h"
#include "pdsi/consist/model.h"
#include "pdsi/storage/device_catalog.h"

namespace pdsi::pfs {

/// How concurrent writes to a single file are serialised.
enum class LockProtocol {
  none,        ///< PVFS-like: no locks, client-coordinated consistency
  extent,      ///< Lustre/GPFS-like: byte-range tokens with revocation
  whole_file,  ///< degenerate shared-file lock (worst case baseline)
};

/// The disk behind every OSS.
inline storage::DiskParams OssDisk() { return storage::EnterpriseFcDisk(); }

struct PfsConfig {
  std::string name = "generic-pfs";
  std::uint32_t num_oss = 8;            ///< object storage servers
  std::uint64_t stripe_unit = 1 * MiB;  ///< bytes per stripe chunk

  // Network/CPU service model.
  double rpc_latency_s = 100e-6;        ///< one-way request latency
  double mds_op_s = 300e-6;             ///< metadata op service time

  // Sharded metadata (pdsi::pfs::ShardedMds, GIGA+-style splitting of
  // the namespace hash space). The default single shard is byte-identical
  // to the historical lone MDS: no partition ever splits and clients
  // never see stale addressing. With more shards, partitions split
  // incrementally as they fill and clients carry lazily-corrected cached
  // bitmaps — a stale client addresses the wrong shard, pays the bounced
  // round trip, merges the fresh bitmap, and retries.
  std::uint32_t num_mds_shards = 1;
  /// File entries per namespace partition before it splits (shards > 1).
  std::uint32_t mds_split_threshold = 2000;
  /// Capability verification at the OSS per request (Maat security);
  /// 0 disables security.
  double security_verify_s = 0.0;

  // Client request engine (pdsi::rpc). The defaults are the synchronous
  // one-RPC-at-a-time client: every request completes before its call
  // returns, and the engine queues nothing. Raising either knob switches
  // the client into pipelined mode: MDS ops (unlink's excepted) and
  // striped write chunks are submitted into per-server queues, up to
  // `rpc_batch` requests coalesce into one wire message (the head pays
  // the RPC latency, tails ride free), and the client's clock only
  // blocks once `rpc_window` requests are in flight. Pipelined writes
  // surface failures at fsync/close (async-I/O semantics), and
  // record_consist_ops requires the synchronous mode.
  std::uint32_t rpc_window = 1; ///< max in-flight requests (1 = synchronous)
  std::uint32_t rpc_batch = 1;  ///< requests per wire message per server

  // Locking.
  LockProtocol locking = LockProtocol::extent;
  std::uint64_t lock_unit = 64 * KiB;   ///< token granularity
  double lock_revoke_s = 1.2e-3;        ///< revocation round trip

  // Consistency (pdsi::consist, after arXiv 2402.14105). POSIX keeps the
  // lock protocol above exactly as-is; the relaxed models skip data-path
  // lock charges and instead publish visibility at close (session), at
  // fsync (commit), or at the amortised collective sync (mpiio).
  consist::ConsistencyModel consistency = consist::ConsistencyModel::posix;
  /// Annotate every data op with its byte interval + content fingerprint
  /// and emit the model's visibility edges on the rank tracks, for
  /// consist::CheckConsistency. Off by default: recording adds events,
  /// and default traces must stay byte-identical.
  bool record_consist_ops = false;

  // Unaligned writes pay a read-modify-write of the containing
  // raid/block unit (PanFS RAID stripelets, GPFS blocks); 0 disables
  // read-modify-write.
  std::uint64_t rmw_unit = 64 * KiB;

  // Keep real bytes? Timing-only runs save memory on big sweeps.
  bool store_data = true;

  /// Personality presets calibrated for the Fig. 8 comparison.
  static PfsConfig PanFsLike(std::uint32_t num_oss);
  static PfsConfig LustreLike(std::uint32_t num_oss);
  static PfsConfig GpfsLike(std::uint32_t num_oss);
  static PfsConfig PvfsLike(std::uint32_t num_oss);
};

}  // namespace pdsi::pfs
