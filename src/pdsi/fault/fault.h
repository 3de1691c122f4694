// pdsi::fault — deterministic seeded fault injection for the simulated
// parallel file system.
//
// The PDSI report's core argument (Fig. 4's MTTI projection, the
// checkpoint-utilization models in src/pdsi/failure) is that component
// failures dominate petascale storage behaviour. This layer makes the
// simulated cluster actually fail: a FaultPlan describes OSS
// crash/restart windows, slow-disk degradation and dropped RPCs, all
// derived from a seeded PRNG so every run is byte-reproducible.
//
// One mechanism slows a server: its schedule of degradations, each a
// start instant plus disk, NIC and CPU factors. The plan's random slow
// disk starts at -infinity; degrade() adds a timed one. pfs::Oss applies
// factors(), the product of those started strictly before a request's
// arrival, to each request's charges.
//
// Determinism contract:
//   * All random state (crash windows, per-server degradation factors)
//     is precomputed at construction from plan.seed via per-server
//     forked xoshiro streams — queries like down()/factors() are pure
//     functions of (server, time).
//   * The only runtime randomness is drop_rpc(), which consumes a
//     per-server stream. Callers invoke it exclusively inside
//     VirtualScheduler::atomically sections (totally ordered by the
//     scheduler) or from a single-threaded event loop, so the i-th draw
//     for a server is the same draw on every run.
//   * An injector built from an all-zero (inactive) plan, with no
//     forced crash window or degradation added, consumes no randomness
//     on the data path and changes no timing: installing it is
//     behaviourally identical to not installing one.
//
// Counters are atomic (order-independent sums) so rank threads may
// report concurrently; trace events land on obs::kFaultTrack and are
// only emitted from scheduler-ordered sections, keeping golden traces
// byte-stable.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/obs/obs.h"

namespace pdsi::fault {

/// Everything the injector needs to derive a failure schedule, plus the
/// client-side recovery policy. All-zero rates (the default) mean the
/// plan is inactive and the data path is untouched.
struct FaultPlan {
  std::uint64_t seed = 1;        ///< PRNG seed for the whole schedule
  double horizon_s = 3600.0;     ///< crash windows generated in [0, horizon)

  // -- OSS crash/restart windows --
  double oss_mtbf_s = 0.0;       ///< mean uptime between crashes (0 = never)
  double oss_restart_s = 30.0;   ///< downtime per crash

  // -- Slow-disk degradation --
  double slow_disk_prob = 0.0;   ///< chance a server starts degraded
  double slow_disk_factor = 4.0; ///< disk service multiplier when degraded

  // -- RPC loss --
  double rpc_drop_prob = 0.0;    ///< per-request drop probability

  // -- Client recovery policy --
  double rpc_timeout_s = 5e-3;   ///< charged per failed attempt
  double retry_backoff_s = 1e-3; ///< doubles with each attempt
  std::uint32_t max_retries = 6; ///< attempts beyond the first
  /// Reads from a crashed server retry once, then go to a surviving
  /// server (replica model); false = single-copy, reads fail while the
  /// owner is down (the regime plfs::Reader's degraded mode handles).
  bool read_failover = true;

  bool active() const {
    return oss_mtbf_s > 0.0 || slow_disk_prob > 0.0 || rpc_drop_prob > 0.0;
  }
};

/// Service-time multipliers of one server's disk, NIC and CPU.
struct Factors {
  double disk = 1.0;
  double nic = 1.0;
  double cpu = 1.0;
};

class FaultInjector {
 public:
  /// Precomputes the whole failure schedule for `num_servers` object
  /// storage servers. `ctx` (optional, must outlive the injector) feeds
  /// the fault.* counters and the `fault` trace track.
  FaultInjector(const FaultPlan& plan, std::uint32_t num_servers,
                obs::Context* ctx = nullptr);

  const FaultPlan& plan() const { return plan_; }
  std::uint32_t num_servers() const {
    return static_cast<std::uint32_t>(windows_.size());
  }

  // -- Schedule queries (pure; any thread) --

  /// True if `server` is inside a crash window at time `t`.
  bool down(std::uint32_t server, double t) const;
  /// End of the crash window containing `t`, or `t` if the server is up.
  double next_up(std::uint32_t server, double t) const;
  /// Product of the factors of every degradation of `server` whose start
  /// is strictly before `t` (all 1.0 when none is).
  Factors factors(std::uint32_t server, double t) const;
  /// Crash windows beginning in (since, until] — the OSS uses this to
  /// drop volatile cache state after a restart.
  std::uint64_t crashes_between(std::uint32_t server, double since,
                                double until) const;
  /// All crash instants across servers, sorted ascending: the injected
  /// interrupt schedule failure::CheckpointSimParams::interrupts consumes.
  std::vector<double> interrupt_times() const;

  /// Test/bench hook: force an additional crash window.
  void force_down(std::uint32_t server, double start, double end);
  /// Test/bench hook: slow `server` by `f` for requests arriving strictly
  /// after `start_s`; it multiplies with the server's other degradations.
  void degrade(std::uint32_t server, double start_s, const Factors& f);

  // -- Runtime draws & incident reporting (scheduler-ordered contexts) --

  /// Whether this RPC to `server` is lost. Consumes the server's stream
  /// only when rpc_drop_prob > 0, so inactive plans stay draw-free.
  bool drop_rpc(std::uint32_t server);

  void note_drop(std::uint32_t server, double t);
  void note_retry(std::uint32_t server, double start, double end);
  void note_failover(std::uint32_t from, std::uint32_t to, double t);
  void note_drain_retry(std::uint32_t server, double start, double end);

  // -- Incident totals --
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  std::uint64_t dropped_rpcs() const { return dropped_.load(std::memory_order_relaxed); }
  std::uint64_t failovers() const { return failovers_.load(std::memory_order_relaxed); }
  std::uint64_t drain_retries() const { return drain_retries_.load(std::memory_order_relaxed); }
  /// Crash windows in the generated schedule (forced ones included).
  std::uint64_t crash_count() const;

 private:
  struct Window {
    double start;
    double end;
  };
  struct Degradation {
    double start;
    Factors factors;
  };

  FaultPlan plan_;
  std::vector<std::vector<Window>> windows_;  ///< per server, sorted
  std::vector<std::vector<Degradation>> degradations_;  ///< per server
  std::vector<Rng> drop_rng_;

  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> drain_retries_{0};

  obs::Context* ctx_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_failovers_ = nullptr;
  obs::Counter* c_drain_retries_ = nullptr;
};

}  // namespace pdsi::fault
