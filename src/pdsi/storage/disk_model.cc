#include "pdsi/storage/disk_model.h"

#include <algorithm>
#include <cmath>

namespace pdsi::storage {

double DiskModel::access(std::uint64_t object_id, std::uint64_t offset,
                         std::uint64_t len) {
  ++requests_;
  double positioning = 0.0;
  if (has_position_ && object_id == last_object_ && offset == last_end_) {
    // Sequential continuation: the head is already there.
    ++sequential_;
  } else if (has_position_ && object_id == last_object_) {
    // Same object: seek time grows roughly with the square root of the
    // byte distance (classic seek curve), from a track-to-track settle for
    // near misses up to a full average seek across the platter. A uniform
    // random workload over the whole device averages ~seek_avg.
    const std::uint64_t dist =
        offset > last_end_ ? offset - last_end_ : last_end_ - offset;
    const double frac = std::sqrt(std::min(
        1.0, static_cast<double>(dist) / (0.33 * static_cast<double>(params_.capacity_bytes))));
    positioning = params_.seek_track_s +
                  frac * (params_.seek_avg_s - params_.seek_track_s) +
                  params_.rotational_latency_s();
  } else {
    positioning = params_.seek_avg_s + params_.rotational_latency_s();
  }
  has_position_ = true;
  last_object_ = object_id;
  last_end_ = offset + len;
  return params_.per_request_s + positioning + stream_time(len);
}

}  // namespace pdsi::storage
