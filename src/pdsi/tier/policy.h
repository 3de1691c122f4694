// Placement, demotion and promotion rules for the tiering engine.
//
// The engine mechanism (tiers, copies, charging) decides *how* an object
// moves; these rules decide *where* it lives and *when* it moves:
//   * placement — pinned objects go to their pin, everything else enters
//                 at the hot (burst-buffer) tier;
//   * demotion  — warm-occupancy hysteresis, the same shape as the burst
//                 buffer's drain backpressure: shedding starts at
//                 kDemoteHigh and stops at kDemoteLow; victims go
//                 coldest first (oldest last access, ids break ties so
//                 the order is total and runs stay byte-stable);
//   * promotion — an object read kPromoteReads times within
//                 kPromoteWindowS is "hot" and moves one tier up, never
//                 above its pin.
// All rules are deterministic: no wall clocks, no unseeded randomness.
#pragma once

#include <cstdint>

namespace pdsi::tier {

/// Tier indices, hottest first (lower = hotter).
inline constexpr int kHotTier = 0;   ///< burst-buffer flash
inline constexpr int kWarmTier = 1;  ///< parallel file system
inline constexpr int kColdTier = 2;  ///< erasure-coded object store
inline constexpr int kNumTiers = 3;
inline constexpr int kNoTier = -1;

/// Warm occupancy at which demotion starts, and at which it stops.
inline constexpr double kDemoteHigh = 0.85;
inline constexpr double kDemoteLow = 0.60;
/// Reads within one window that make an object hot enough to promote.
inline constexpr std::uint64_t kPromoteReads = 3;
inline constexpr double kPromoteWindowS = 60.0;

/// Per-object bookkeeping the rules decide on.
struct ObjectMeta {
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  double created = 0.0;
  double last_access = 0.0;     ///< last read or write
  std::uint64_t reads = 0;      ///< lifetime read count
  std::uint64_t window_reads = 0;  ///< reads within the promotion window
  double window_start = 0.0;
  int pin = kNoTier;            ///< pin-to-tier; kNoTier = unpinned
};

/// Occupancy snapshot for one tier.
struct TierUsage {
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
  double frac() const {
    return capacity == 0 ? 0.0
                         : static_cast<double>(used) / static_cast<double>(capacity);
  }
};

// -- Placement ---------------------------------------------------------------

/// Tier a newly created object enters.
inline int InitialTier(const ObjectMeta& meta) {
  return meta.pin == kNoTier ? kHotTier : meta.pin;
}

// -- Demotion ----------------------------------------------------------------

/// True when the warm tier should shed objects.
inline bool OverPressure(const TierUsage& u) { return u.frac() >= kDemoteHigh; }

/// True once shedding may stop (strictly below OverPressure's trigger, or
/// demotion thrashes).
inline bool Relieved(const TierUsage& u) { return u.frac() <= kDemoteLow; }

/// Strict weak order: is `a` demoted before `b`?
inline bool DemoteBefore(const ObjectMeta& a, const ObjectMeta& b) {
  if (a.last_access != b.last_access) return a.last_access < b.last_access;
  return a.id < b.id;  // total order => deterministic victim sequence
}

// -- Promotion ---------------------------------------------------------------

/// Counts one read in the sliding window, restarting the window once it
/// is older than kPromoteWindowS.
inline void NoteRead(ObjectMeta& meta, double now) {
  if (now - meta.window_start > kPromoteWindowS) {
    meta.window_start = now;
    meta.window_reads = 0;
  }
  ++meta.window_reads;
}

/// Target tier for an object served from `current_tier`, or kNoTier to
/// stay put. Only ever returns the next hotter tier, and never one above
/// the object's pin.
inline int PromoteTo(const ObjectMeta& meta, int current_tier, double now) {
  if (current_tier <= kHotTier) return kNoTier;
  if (now - meta.window_start > kPromoteWindowS) return kNoTier;
  if (meta.window_reads < kPromoteReads) return kNoTier;
  const int target = current_tier - 1;
  if (meta.pin != kNoTier && target < meta.pin) return kNoTier;
  return target;
}

}  // namespace pdsi::tier
