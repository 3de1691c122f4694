// PfsCluster: the assembled parallel file system substrate — one MDS,
// N object storage servers, a placement strategy, byte-range lock state,
// and (optionally) the actual file bytes for read-back verification.
//
// All state mutation happens inside VirtualScheduler::atomically sections
// entered by PfsClient, so the cluster needs no internal locking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pdsi/obs/obs.h"
#include "pdsi/pfs/config.h"
#include "pdsi/pfs/mds.h"
#include "pdsi/pfs/oss.h"
#include "pdsi/pfs/sharded_mds.h"
#include "pdsi/pfs/placement.h"
#include "pdsi/pfs/sparse_buffer.h"
#include "pdsi/sim/virtual_time.h"

namespace pdsi::fault {
class FaultInjector;
}  // namespace pdsi::fault

namespace pdsi::pfs {

class PfsCluster {
 public:
  /// `obs` (optional, must outlive the cluster) turns the whole substrate
  /// observable: the MDS, every OSS, and the clients constructed on this
  /// cluster all trace into it.
  PfsCluster(PfsConfig cfg, sim::VirtualScheduler& sched,
             std::unique_ptr<PlacementStrategy> placement = nullptr,
             obs::Context* obs = nullptr);

  PfsCluster(const PfsCluster&) = delete;
  PfsCluster& operator=(const PfsCluster&) = delete;

  const PfsConfig& config() const { return cfg_; }
  sim::VirtualScheduler& scheduler() { return sched_; }
  /// The sharded metadata service (one shard under the default config).
  ShardedMds& smds() { return smds_; }
  /// Shard 0 — the whole MDS under the default single-shard config; kept
  /// for tests and tools that poke the namespace directly.
  Mds& mds() { return smds_.shard(0); }
  Oss& oss(std::uint32_t i) { return *servers_[i]; }
  std::uint32_t num_oss() const { return static_cast<std::uint32_t>(servers_.size()); }
  const PlacementStrategy& placement() const { return *placement_; }
  obs::Context* obs_ctx() const { return obs_; }

  /// The stripe walk: splits [off, off+len) of `file` at stripe-unit
  /// boundaries and calls `fn(server, pos, n)` for each chunk in offset
  /// order, `server` being the placement's server for that stripe. Stops
  /// as soon as `fn` returns false; returns false iff it stopped early.
  /// Every striped transfer (client reads and writes, drains, tier warm
  /// reads) walks through here.
  template <typename Fn>
  bool for_each_chunk(std::uint64_t file, std::uint64_t off, std::uint64_t len,
                      Fn&& fn) const {
    const std::uint64_t unit = cfg_.stripe_unit;
    const std::uint32_t servers = num_oss();
    const std::uint64_t end = off + len;
    for (std::uint64_t pos = off; pos < end;) {
      const std::uint64_t n = std::min(unit - pos % unit, end - pos);
      if (!fn(placement_->server_for(file, pos / unit, servers), pos, n)) {
        return false;
      }
      pos += n;
    }
    return true;
  }

  /// Replica failover target: the first server after `server` in ring
  /// order that the fault injector does not report down at `at`, or
  /// `server` itself when every other server is down.
  std::uint32_t survivor(std::uint32_t server, double at) const;

  /// Aggregate disk busy-time across servers (utilisation reporting).
  double total_disk_busy() const;

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// clients, servers and drain targets. Install before traffic starts;
  /// the injector must outlive its use. nullptr (the default) keeps every
  /// data path byte-identical to a fault-free build.
  void set_fault(fault::FaultInjector* f);
  fault::FaultInjector* fault() const { return fault_; }

  // -- File payload (present when cfg.store_data) --
  SparseBuffer* data_for(std::uint64_t file_id, bool create_if_missing);
  void drop_data(std::uint64_t file_id);

  // -- Byte-range lock state --
  struct LockUnit {
    std::uint32_t holder = kNoHolder;
    double free = 0.0;  ///< earliest instant the token can move again
  };
  static constexpr std::uint32_t kNoHolder = ~0u;

  LockUnit& lock_unit(std::uint64_t file_id, std::uint64_t unit);
  void drop_locks(std::uint64_t file_id);

  /// Servers a file has touched (for fsync/unlink fan-out).
  std::unordered_set<std::uint32_t>& touched_servers(std::uint64_t file_id);
  void drop_touched(std::uint64_t file_id);

 private:
  PfsConfig cfg_;
  sim::VirtualScheduler& sched_;
  std::unique_ptr<PlacementStrategy> placement_;
  obs::Context* obs_;
  fault::FaultInjector* fault_ = nullptr;
  ShardedMds smds_;
  std::vector<std::unique_ptr<Oss>> servers_;
  std::unordered_map<std::uint64_t, SparseBuffer> file_data_;
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t, LockUnit>> locks_;
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint32_t>> touched_;
};

}  // namespace pdsi::pfs
