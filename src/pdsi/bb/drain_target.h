// Where a burst buffer drains to.
//
// The drain scheduler is single-threaded (it lives on the burst buffer's
// event queue), so a target sees a serial stream of large sequential
// writes with nondecreasing timestamps — exactly the precondition the
// simulated-PFS server clocks require. Two implementations:
//   * FixedRateDrainTarget — analytic bandwidth/latency model for unit
//     tests and closed-form sweeps;
//   * MakePfsDrainTarget   — stripes each drain unit over the simulated
//     pdsi::pfs cluster's object storage servers (pfs_drain_target.cc).
//     The tiering engine also writes pinned-warm data and cold->warm
//     copy-ups through its PFS target, so there is one warm write path.
#pragma once

#include <cstdint>
#include <memory>

namespace pdsi::pfs {
class PfsCluster;
}

namespace pdsi::bb {

class DrainTarget {
 public:
  virtual ~DrainTarget() = default;

  /// Persists [off, off+len) of `file` arriving at time `now`; returns the
  /// completion time (>= now). Calls arrive with nondecreasing `now`.
  virtual double drain(std::uint64_t file, std::uint64_t off,
                       std::uint64_t len, double now) = 0;
};

/// Constant-bandwidth target: completion = now + latency + len / bandwidth.
class FixedRateDrainTarget final : public DrainTarget {
 public:
  explicit FixedRateDrainTarget(double bytes_per_second,
                                double per_op_latency_s = 0.0)
      : bw_(bytes_per_second), latency_(per_op_latency_s) {}

  double drain(std::uint64_t, std::uint64_t, std::uint64_t len,
               double now) override {
    return now + latency_ + static_cast<double>(len) / bw_;
  }

 private:
  double bw_;
  double latency_;
};

/// Drains through the simulated parallel file system: each unit is striped
/// over the cluster's OSS set and charged against their disk/NIC/CPU
/// clocks, so drain bandwidth, contention, and aggregation behaviour come
/// from the same server model every other pfs experiment uses.
std::unique_ptr<DrainTarget> MakePfsDrainTarget(pfs::PfsCluster& cluster);

}  // namespace pdsi::bb
