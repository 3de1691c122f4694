// TierEngine — one policy-driven engine over the repo's three storage
// personalities: the burst-buffer flash tier (pdsi::bb) absorbs writes,
// the parallel file system (pdsi::pfs) holds the drained working set, and
// the erasure-coded object store (tier::ObjectStore) archives what falls
// out of the warm watermarks. The PDSI stack the paper describes is
// exactly this pipeline; the repo previously modelled each stage as a
// disconnected demo.
//
// Mechanism vs policy: the engine owns the copies and the charging —
// hot->warm demotion IS the burst buffer's watermark drain (the engine's
// drain target stripes over the PFS cluster), warm->cold demotion is an
// ObjectStore put, promotion is a copy up — while *which* object moves
// and *when* comes from the fixed rules in policy.h. Every warm write
// (drains, pinned-warm writes, cold->warm copy-ups) goes through the one
// bb::PfsDrainTarget, and every warm transfer walks the stripes with
// pfs::PfsCluster::for_each_chunk.
//
// Copies and authority: the engine keeps an object's canonical bytes in
// memory while any hot/warm copy exists (the simulated PFS charges time
// but does not store engine payloads); once an object is demoted to
// cold-only, the erasure-coded shards in the ObjectStore are the ONLY
// copy — a later read really does reassemble (or reconstruct) them, so
// tier failure and rebuild-from-parity are tested against real bytes.
//
// Timing: every operation takes the caller's virtual time and returns a
// completion time; calls must arrive with nondecreasing `now` (single
// timeline, the same contract as pfs::Oss and bb::BurstBuffer).
//
// Faults: set_fault() installs one seeded injector across the warm
// servers (cluster set) and the cold device shelf (injector servers
// [num_oss, num_oss + devices)). A warm server down at read time fails
// over at once to the cluster's next surviving server
// (pfs::PfsCluster::survivor) when the plan allows it, else the read falls
// back to the cold copy if one exists (degraded read) and is an
// Errc::io_error otherwise, counted in read_errors(). Inactive plans are
// pure queries: installing one changes no timing and consumes no
// randomness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "pdsi/bb/burst_buffer.h"
#include "pdsi/common/interval_set.h"
#include "pdsi/common/result.h"
#include "pdsi/obs/obs.h"
#include "pdsi/tier/object_store.h"
#include "pdsi/tier/policy.h"

namespace pdsi::pfs {
class PfsCluster;
}  // namespace pdsi::pfs
namespace pdsi::fault {
class FaultInjector;
}  // namespace pdsi::fault

namespace pdsi::tier {

struct TierEngineParams {
  bb::BbParams bb;                              ///< hot tier (staging flash)
  std::uint64_t warm_capacity_bytes = 8 * GiB;  ///< warm budget the demotion
                                                ///< policy polices
  ObjectStoreParams cold;                       ///< cold tier geometry
};

struct TierStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t hot_hits = 0;    ///< reads served from staging flash
  std::uint64_t warm_hits = 0;   ///< reads striped over the PFS
  std::uint64_t cold_hits = 0;   ///< reads served by the object store
  std::uint64_t demotions = 0;   ///< warm -> cold movements
  std::uint64_t promotions = 0;  ///< cold -> warm / warm -> hot movements
  std::uint64_t demoted_bytes = 0;
  std::uint64_t promoted_bytes = 0;
  std::uint64_t degraded_reads = 0;  ///< failover or surviving-tier reads
  std::uint64_t read_errors = 0;     ///< reads with no surviving copy
};

class TierEngine {
 public:
  /// The engine stripes warm data over `cluster` (which must outlive it)
  /// and drives its burst buffer's drain through the same servers. `ctx`
  /// (optional) feeds tier.* instruments and puts promotion/demotion/
  /// rebuild spans on obs::kTierTrack.
  TierEngine(TierEngineParams params, pfs::PfsCluster& cluster,
             obs::Context* ctx = nullptr);

  TierEngine(const TierEngine&) = delete;
  TierEngine& operator=(const TierEngine&) = delete;

  // -- Data path (virtual-time; nondecreasing `now`) --

  /// Writes `data` at `off`, creating the object if needed; returns the
  /// ingest completion time (durability comes from flush()).
  Result<double> write(const std::string& name, std::uint64_t off,
                       std::span<const std::uint8_t> data, double now);

  /// Reads into `out` (clamped at the object's size; bytes past EOF are
  /// untouched). Sets `*n_read` when non-null. Serves from the hottest
  /// tier holding the range and may trigger policy promotion.
  Result<double> read(const std::string& name, std::uint64_t off,
                      std::span<std::uint8_t> out, double now,
                      std::size_t* n_read = nullptr);

  /// Durability barrier: drains the burst buffer, persists pinned-cold
  /// objects, then applies demotion policy. Returns the drain completion.
  double flush(double now);

  /// Advances background drains (compute time passing).
  void run_until(double t);

  /// Re-protects the cold tier after device loss (ObjectStore::rebuild).
  Result<double> rebuild(double now) { return store_.rebuild(now); }

  // -- Namespace --

  Status remove(const std::string& name);
  Status rename(const std::string& from, const std::string& to);
  Result<std::uint64_t> size(const std::string& name) const;
  bool exists(const std::string& name) const;
  /// Sorted object names.
  std::vector<std::string> list() const;

  /// Pins `name` (existing or future) to `tier`; kNoTier unpins. Pinned
  /// objects are placed on their tier and never demoted below (or
  /// promoted above) it.
  Status pin(const std::string& name, int tier);

  /// Installs one seeded injector across warm servers and cold devices
  /// (cluster servers [0, num_oss), store devices at [num_oss, ...)).
  /// nullptr clears. Inactive plans leave every timing untouched.
  void set_fault(fault::FaultInjector* f);

  // -- Introspection --

  const TierStats& stats() const { return stats_; }
  std::uint64_t read_errors() const { return stats_.read_errors; }
  std::uint64_t degraded_reads() const { return stats_.degraded_reads; }
  TierUsage usage(int tier) const;
  /// Hottest tier holding the authoritative copy of `name` (kHotTier
  /// until fully drained, kWarmTier while PFS-resident, kColdTier once
  /// archive-only), or kNoTier if absent.
  int resident_tier(const std::string& name) const;

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  bb::BurstBuffer& buffer() { return *bb_; }
  pfs::PfsCluster& cluster() { return cluster_; }

  /// Bucket holding demoted objects in the cold store.
  static constexpr const char* kBucket = "tier";

 private:
  struct Object {
    ObjectMeta meta;
    std::string name;
    Bytes data;          ///< canonical bytes while hot/warm resident
    RangeMap drained;    ///< byte ranges durable on the warm tier
    bool warm = false;   ///< fully drained (warm copy complete)
    bool cold = false;   ///< present in the object store
    int placed = kHotTier;  ///< tier the placement policy chose at create
  };

  Object* find(const std::string& name);
  const Object* find(const std::string& name) const;
  std::string cold_key(const Object& o) const { return std::to_string(o.meta.id); }

  /// Burst-buffer drain sink: [off, off+len) of object `id` became
  /// durable on the warm tier.
  void on_drained(std::uint64_t id, std::uint64_t off, std::uint64_t len);
  /// Runs any demotions deferred from inside burst-buffer callbacks.
  void settle(double now);

  /// Stripes a warm-tier read; on a down server either fails over or
  /// reports Errc::io_error via the result (caller may fall back to
  /// cold). `fell_over` counts failovers for degraded-read accounting.
  Result<double> warm_read(std::uint64_t id, std::uint64_t off,
                           std::uint64_t len, double now, bool* fell_over);

  /// Drops any cold copy invalidated by a fresh write.
  void invalidate_cold(Object& o);
  /// Moves a fully-drained warm object to the cold tier at time `t`.
  void demote_to_cold(Object& o, double t);
  void maybe_demote_warm(double t);
  /// Copies an object one tier up after the promotion policy fires.
  void promote(Object& o, int target, const Bytes& bytes, double t);

  TierEngineParams params_;
  pfs::PfsCluster& cluster_;
  std::unique_ptr<bb::DrainTarget> drain_target_;
  std::unique_ptr<bb::BurstBuffer> bb_;
  ObjectStore store_;

  std::map<std::string, std::uint64_t> names_;  ///< name -> id
  std::map<std::uint64_t, Object> objects_;     ///< id -> record (ordered)
  std::map<std::string, int> pins_;             ///< pins set before create
  std::uint64_t next_id_ = 1;
  std::uint64_t warm_used_ = 0;  ///< drained bytes accounted to the warm tier
  bool pending_demote_ = false;  ///< pressure seen inside a drain callback
  TierStats stats_;

  obs::Context* ctx_ = nullptr;
  obs::Counter* c_reads_ = nullptr;
  obs::Counter* c_writes_ = nullptr;
  obs::Counter* c_hot_hits_ = nullptr;
  obs::Counter* c_warm_hits_ = nullptr;
  obs::Counter* c_cold_hits_ = nullptr;
  obs::Counter* c_demotions_ = nullptr;
  obs::Counter* c_promotions_ = nullptr;
  obs::Counter* c_degraded_ = nullptr;
  obs::Counter* c_read_errors_ = nullptr;
};

}  // namespace pdsi::tier
