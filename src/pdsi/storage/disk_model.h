// Rotating-disk service-time model.
//
// The PDSI result set leans on one mechanical asymmetry: a disk streams
// sequential data at ~50-100 MB/s but pays ~10 ms of head positioning for
// every discontiguous access. N-to-1 strided checkpoint writes (PLFS's
// target pathology), interleaved multi-job access (Argon), and metadata
// workloads all live or die by that asymmetry, so the model tracks the
// last accessed (object, offset) and charges positioning only on
// discontiguity.
#pragma once

#include <cstdint>
#include <string>

namespace pdsi::storage {

struct DiskParams {
  std::string name = "nearline-sata";
  double seek_avg_s = 8.5e-3;        ///< average seek
  double seek_track_s = 0.8e-3;      ///< settle for a near miss (same object)
  double rpm = 7200.0;               ///< rotational speed
  double seq_bw_bytes = 80.0 * 1024 * 1024;  ///< media streaming rate
  double per_request_s = 0.1e-3;     ///< controller / command overhead
  std::uint64_t capacity_bytes = 500ULL << 30;

  double rotational_latency_s() const { return 0.5 * 60.0 / rpm; }
};

class DiskModel {
 public:
  explicit DiskModel(DiskParams params = {}) : params_(params) {}

  const DiskParams& params() const { return params_; }

  /// Service time for accessing `len` bytes of object `object_id` at
  /// `offset`. Sequential continuation of the previous access streams at
  /// media rate; anything else pays seek + rotation. Writes and reads are
  /// symmetric at this fidelity.
  double access(std::uint64_t object_id, std::uint64_t offset, std::uint64_t len);

  /// Positioning-free streaming time for `len` bytes (used for idealised
  /// comparisons).
  double stream_time(std::uint64_t len) const {
    return static_cast<double>(len) / params_.seq_bw_bytes;
  }

  std::uint64_t total_requests() const { return requests_; }
  std::uint64_t sequential_requests() const { return sequential_; }

 private:
  DiskParams params_;
  bool has_position_ = false;
  std::uint64_t last_object_ = 0;
  std::uint64_t last_end_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t sequential_ = 0;
};

}  // namespace pdsi::storage
