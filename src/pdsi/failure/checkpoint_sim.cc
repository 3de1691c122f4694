#include "pdsi/failure/checkpoint_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pdsi/obs/obs.h"

namespace pdsi::failure {
namespace {

// The failure process, behind one interface for both sources: analytic
// Weibull draws (the default) or an injected schedule of interrupt
// instants (p.interrupts). The analytic path reproduces the historical
// draw sequence exactly — same scale computation, same "accumulate while
// next <= t" advance — so existing seeded results are unchanged.
class FailureClock {
 public:
  FailureClock(const CheckpointSimParams& p, Rng& rng)
      : injected_(p.interrupts),
        rng_(rng),
        shape_(p.weibull_shape),
        scale_(p.mtti_seconds / std::tgamma(1.0 + 1.0 / p.weibull_shape)) {
    next_ = injected_ ? pop() : rng_.weibull(shape_, scale_);
  }

  /// The next failure instant (infinity once an injected schedule runs dry).
  double next() const { return next_; }

  /// Advances the process past `t`: instants at or before `t` struck a
  /// machine that was already down (mid-restart) and are absorbed.
  void advance_past(double t) {
    if (injected_) {
      while (next_ <= t) next_ = pop();
    } else {
      while (next_ <= t) next_ += rng_.weibull(shape_, scale_);
    }
  }

 private:
  double pop() {
    return idx_ < injected_->size()
               ? (*injected_)[idx_++]
               : std::numeric_limits<double>::infinity();
  }

  const std::vector<double>* injected_;
  std::size_t idx_ = 0;
  Rng& rng_;
  double shape_;
  double scale_;
  double next_;
};

obs::Tracer* PhaseTracer(const CheckpointSimParams& p) {
  obs::Tracer* t = p.obs ? p.obs->tracer : nullptr;
  if (t) {
    t->track(obs::kCheckpointTrack, "ckpt");
    t->track(obs::kCheckpointDrainTrack, "ckpt.drain");
  }
  return t;
}

}  // namespace

// One loop for direct and staged checkpoints. The checkpoint write blocks
// the application; when staged, the drain overlaps the next compute
// segment and durability arrives only at drain completion. At most one
// checkpoint is ever in flight (single staging slot), so the next write
// stalls while the previous drain is running — that stall is the visible
// symptom of a drain-bandwidth bottleneck. A direct checkpoint (no drain)
// is durable the instant its write returns, so it never stalls or loses
// a drain.
CheckpointSimResult SimulateCheckpointing(const CheckpointSimParams& p, Rng& rng) {
  CheckpointSimResult r;
  obs::Tracer* tracer = PhaseTracer(p);
  FailureClock fail(p, rng);
  const bool staged = p.drain_seconds > 0.0;

  double done = 0.0;     // durable work
  double pending = 0.0;  // checkpointed work whose drain has not completed
  double pending_durable_at = 0.0;
  double now = 0.0;

  while (done + pending < p.work_seconds || pending > 0.0) {
    // Commit an in-flight checkpoint whose drain has finished.
    if (pending > 0.0 && pending_durable_at <= now) {
      done += pending;
      pending = 0.0;
    }
    const double segment = std::min(p.interval, p.work_seconds - done - pending);
    if (segment <= 0.0) {
      // All work checkpointed; just wait out the final drain (or a failure).
      if (fail.next() < pending_durable_at) {
        const double failed_at = fail.next();
        ++r.failures;
        ++r.lost_drains;
        pending = 0.0;
        if (tracer) {
          tracer->instant(obs::kCheckpointTrack, "failure", "ckpt", failed_at);
          tracer->instant(obs::kCheckpointDrainTrack, "lost_drain", "ckpt",
                          failed_at);
          tracer->complete(obs::kCheckpointTrack, "restart", "ckpt", failed_at,
                           failed_at + p.restart_seconds);
        }
        now = failed_at + p.restart_seconds;
        fail.advance_past(now);
        continue;
      }
      now = pending_durable_at;
      continue;
    }
    const double compute_end = now + segment;
    // Backpressure: the single staging slot frees when the previous drain
    // finishes; only then can the next write start.
    const double write_start =
        pending > 0.0 ? std::max(compute_end, pending_durable_at) : compute_end;
    const double write_end = write_start + p.checkpoint_seconds;
    if (fail.next() < write_end) {
      // Failure mid-segment (or mid-checkpoint): progress since the last
      // durable checkpoint is lost, pay the restart.
      const double failed_at = fail.next();
      ++r.failures;
      if (pending > 0.0) {
        if (failed_at < pending_durable_at) {
          ++r.lost_drains;  // died before the previous drain finished
          if (tracer) {
            tracer->instant(obs::kCheckpointDrainTrack, "lost_drain", "ckpt",
                            failed_at);
          }
        } else {
          done += pending;  // previous checkpoint made it to the PFS
        }
        pending = 0.0;
      }
      if (tracer) {
        tracer->instant(obs::kCheckpointTrack, "failure", "ckpt", failed_at);
        tracer->complete(obs::kCheckpointTrack, "restart", "ckpt", failed_at,
                         failed_at + p.restart_seconds);
      }
      now = failed_at + p.restart_seconds;
      fail.advance_past(now);
      continue;
    }
    r.stall_seconds += write_start - compute_end;
    if (pending > 0.0) {  // drained strictly before write_start
      done += pending;
      pending = 0.0;
    }
    ++r.checkpoints;
    if (tracer) {
      tracer->complete(obs::kCheckpointTrack, "compute", "ckpt", now, compute_end);
      if (write_start > compute_end) {
        tracer->complete(obs::kCheckpointTrack, "stall", "ckpt", compute_end,
                         write_start);
      }
      tracer->complete(obs::kCheckpointTrack, staged ? "absorb" : "checkpoint",
                       "ckpt", write_start, write_end);
      if (staged) {
        tracer->complete(obs::kCheckpointDrainTrack, "drain", "ckpt", write_end,
                         write_end + p.drain_seconds);
      }
    }
    now = write_end;
    pending = segment;
    pending_durable_at = write_end + p.drain_seconds;
  }
  r.wall_seconds = now;
  r.utilization = p.work_seconds / now;
  return r;
}

}  // namespace pdsi::failure
