// Discrete-event validation of the checkpoint-overhead model: runs a
// long application against a failure process with a fixed checkpoint
// interval and measures achieved utilisation directly. Used by tests to
// confirm the analytic EffectiveUtilization() formula and by the Fig. 5
// bench as an independent cross-check of the projection.
#pragma once

#include <cstdint>
#include <vector>

#include "pdsi/common/rng.h"

namespace pdsi::obs {
struct Context;
}

namespace pdsi::failure {

struct CheckpointSimParams {
  double work_seconds = 30.0 * 24 * 3600;  ///< useful compute to finish
  double interval = 3600.0;                ///< compute time between checkpoints
  /// Blocking checkpoint write; when a burst buffer stages the
  /// checkpoint, this is the absorb into it.
  double checkpoint_seconds = 300.0;
  double restart_seconds = 600.0;          ///< reboot + read last checkpoint
  double mtti_seconds = 24.0 * 3600;       ///< failure process mean
  double weibull_shape = 1.0;              ///< 1.0 = Poisson failures

  /// Background drain of a staged checkpoint to the parallel file system
  /// (pdsi::bb); 0 means the checkpoint is durable when the write
  /// returns. While positive, the application resumes compute after the
  /// absorb and the buffer drains in the background. The drain channel is
  /// serial with a single staging slot, so absorb k stalls until drain k-1
  /// has finished (the backpressure regime once drain bandwidth is the
  /// bottleneck). A checkpoint is durable only when its drain completes: a
  /// failure that strikes mid-drain loses that checkpoint and rolls back
  /// to the previous durable one.
  double drain_seconds = 0.0;

  /// Optional injected interrupt schedule (virtual seconds, ascending;
  /// must outlive the call). When set, failures strike at exactly these
  /// instants instead of the analytic Weibull process — the hook
  /// pdsi::fault uses to couple lost work to actually-injected faults
  /// (FaultInjector::interrupt_times()). Instants landing during a
  /// restart are absorbed by it (the machine is already down), matching
  /// how the analytic process skips draws inside restarts. With nullptr
  /// the analytic model runs unchanged, draw-for-draw.
  const std::vector<double>* interrupts = nullptr;

  /// Optional tracing/metrics sink (must outlive the call): phase spans
  /// (compute/stall/restart, and checkpoint — named absorb when staged —
  /// with drains on their own track) and failure instants land on
  /// obs::kCheckpointTrack / obs::kCheckpointDrainTrack.
  obs::Context* obs = nullptr;
};

struct CheckpointSimResult {
  double wall_seconds = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t checkpoints = 0;
  double utilization = 0.0;  ///< work_seconds / wall_seconds
  // Staged checkpoints (drain_seconds > 0) only:
  std::uint64_t lost_drains = 0;  ///< failures that caught a checkpoint mid-drain
  double stall_seconds = 0.0;     ///< absorb time spent waiting on the drain channel
};

/// Simulates until the work completes. Failures strike at Weibull times;
/// a failure mid-segment loses progress since the last *durable*
/// checkpoint and pays the restart cost. See CheckpointSimParams for
/// burst-buffer staging.
CheckpointSimResult SimulateCheckpointing(const CheckpointSimParams& params, Rng& rng);

}  // namespace pdsi::failure
