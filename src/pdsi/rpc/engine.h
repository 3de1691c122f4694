// pdsi::rpc — a virtual-time client request engine with per-server
// queues, batched wire messages and a bounded in-flight window.
//
// The PDSI report's incast and metadata-storm sections (and the wider
// parallel-FS literature: zgsk's mainloop + packetqueue, vitastor's
// readdir_getattr_parallel / id_alloc_batch_size knobs) all hinge on the
// same observation: a client that issues one synchronous RPC at a time is
// latency-bound, while a client that keeps a bounded window of requests
// in flight and coalesces small requests into batched wire messages is
// resource-bound. This engine models exactly that distinction for the
// simulated pfs substrate:
//
//   * execute() is the single retry/timeout/backoff seam. Every
//     client->server RPC — synchronous or pipelined — goes through it, so
//     the fault injector plugs in at one place and the exponential
//     backoff schedule (RetryPolicy) can no longer fork per call site.
//   * submit() (pipelined mode) appends the request to its server's
//     queue. A queue flushes as one wire message once `batch` requests
//     have coalesced: the head request pays the wire latency, the tail
//     requests ride the same message for free. Completions accumulate in
//     the in-flight window; the client's clock only advances when the
//     window saturates (it must wait for the earliest completion) — the
//     bounded-window backpressure that separates pipelining from an
//     unbounded burst.
//   * drain() is the synchronisation point (read barriers, fsync, close):
//     every queued request is flushed, every in-flight completion is
//     awaited, and any asynchronous failure since the last drain is
//     surfaced — pipelined writes fail at sync time, like real async I/O.
//
// Determinism: the engine holds plain per-client state mutated only
// inside VirtualScheduler::atomically sections, requests execute in
// queue-index/FIFO order, and all retry randomness goes through the
// fault injector's seeded per-server streams — pipelined runs replay
// byte-identically. With window == batch == 1 (the default) the engine
// never queues anything: execute() serves each request before it returns
// (after any retries), and drain() returns at once, so a synchronous
// client's clock moves only by what its serve callbacks and retries
// charge.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "pdsi/common/function_ref.h"
#include "pdsi/obs/obs.h"

namespace pdsi::fault {
class FaultInjector;
}  // namespace pdsi::fault

namespace pdsi::rpc {

/// The client-side recovery schedule: one timeout charge per failed
/// attempt plus an exponentially growing backoff. This is the single
/// definition of the penalty both the chunk path and the availability-
/// wait path used to compute independently.
struct RetryPolicy {
  double rpc_timeout_s = 5e-3;   ///< charged per failed attempt
  double retry_backoff_s = 1e-3; ///< doubles with each attempt
  std::uint32_t max_retries = 6; ///< attempts beyond the first

  /// Penalty charged after failed attempt number `attempt` (0-based).
  /// The shift saturates at 2^20 so the schedule stays finite for
  /// pathological retry budgets.
  double penalty(std::uint32_t attempt) const;
};

struct EngineConfig {
  std::uint32_t window = 1; ///< max in-flight requests (1 = synchronous)
  std::uint32_t batch = 1;  ///< requests coalesced per wire message per queue
  /// One-way wire latency the Serve callbacks charge when `charge_wire`
  /// is true. The engine never charges this itself — it only uses it to
  /// attribute the wire component in per-request monitor spans.
  double wire_latency_s = 0.0;
  bool pipelined() const { return window > 1 || batch > 1; }
};

/// Cumulative accounting (virtual-time, deterministic).
struct EngineStats {
  std::uint64_t submitted = 0;     ///< requests entering the engine
  std::uint64_t messages = 0;      ///< wire messages (batch heads) sent
  std::uint64_t batched_tails = 0; ///< requests that rode a message for free
  std::uint64_t window_stalls = 0; ///< submissions that waited for a slot
  std::uint64_t drains = 0;        ///< drain() synchronisation points
  std::uint64_t failures = 0;      ///< requests that exhausted their retries
  std::uint64_t max_inflight = 0;  ///< high-water mark of the window
  double stall_s = 0.0;            ///< virtual seconds spent window-stalled
};

class RequestEngine {
 public:
  /// The modelled service: perform the op arriving at `start` and return
  /// its completion time. `charge_wire` is false when the request rode a
  /// batched message whose head already paid the one-way RPC latency.
  using Serve = std::function<double(double start, bool charge_wire)>;
  /// execute() runs its callbacks before it returns, so it only
  /// references them: a synchronous RPC allocates nothing.
  using ServeRef = FunctionRef<double(double start, bool charge_wire)>;

  /// Alternate service for reads whose owner is down (replica failover).
  /// Sets *served when a survivor answered; otherwise the engine keeps
  /// retrying the owner.
  using FailoverRef = FunctionRef<double(double at, bool* served)>;

  /// Where a request goes and how the fault plan treats it.
  struct Route {
    std::uint32_t queue = 0;   ///< target server queue
    /// Data RPCs consume the injector's per-server drop stream; pure
    /// availability waits (fsync flush fan-out) do not, so a flush never
    /// shifts which data RPC a seeded plan drops.
    bool drop_eligible = true;
    /// Requests to servers outside the fault plan (the MDS queue — the
    /// injector's state is sized for the OSS population) bypass the
    /// injector entirely.
    bool fault_exempt = false;
    /// Causal request id minted by the client (0 = unattributed). Carried
    /// through submit/batch/execute/retry and stamped on the monitor's
    /// per-request rpc_req span.
    std::uint64_t req_id = 0;
  };

  /// A pipelined request. It waits in its server queue until the queue
  /// flushes, so it owns its service callback.
  struct Request : Route {
    /// Client time at submit(); set by the engine. The rpc_req span
    /// starts here, so batch wait (submit -> flush) is attributable.
    double submit_t = 0.0;
    Serve serve;
  };

  /// Per-execution attribution, filled by execute() for monitor spans.
  struct ExecInfo {
    double retry_s = 0.0;  ///< timeout + backoff penalties charged
    bool served_wire = false;  ///< serve() ran with charge_wire == true
  };

  RequestEngine() = default;
  RequestEngine(const RequestEngine&) = delete;
  RequestEngine& operator=(const RequestEngine&) = delete;

  /// `num_queues` server queues; `ctx`/`track` (optional) emit rpc.*
  /// counters and rpc_stall/rpc_drain spans on the owning client's track
  /// — only in pipelined mode, so default runs add no instruments.
  void configure(const EngineConfig& cfg, std::uint32_t num_queues,
                 obs::Context* ctx = nullptr, std::uint32_t track = 0);

  const EngineConfig& config() const { return cfg_; }
  bool pipelined() const { return cfg_.pipelined(); }
  const EngineStats& stats() const { return stats_; }

  /// The engine-owned retry seam: runs `serve` for `route` starting at
  /// `t` under `inj`'s fault plan (nullptr = no faults, exactly one serve
  /// call). `failover` (optional) is consulted from the second attempt on.
  /// Returns the completion time; clears *ok once the retry budget is
  /// exhausted (the returned time then includes every backoff charged).
  /// `info` (optional) receives the retry/wire attribution.
  double execute(const Route& route, ServeRef serve, FailoverRef failover,
                 double t, fault::FaultInjector* inj, bool charge_wire,
                 bool* ok, ExecInfo* info = nullptr);

  /// Pipelined submission at client time `t`: enqueue, flush the queue as
  /// one wire message once `batch` requests coalesced, and stall only
  /// when the in-flight window is saturated. Returns the client's
  /// post-submission time (== t unless the window stalled). Asynchronous
  /// failures latch and surface at the next drain(). Pipelined clients
  /// only; a synchronous client calls execute().
  double submit(Request req, double t, fault::FaultInjector* inj);

  /// Synchronisation barrier of a pipelined client: flushes every queue
  /// (in queue-index order), awaits every in-flight completion, and
  /// reports (then clears) any asynchronous failure since the last drain.
  /// Returns the instant the last outstanding request completed. A
  /// synchronous client's drain returns `t` at once and counts nothing.
  double drain(double t, fault::FaultInjector* inj, bool* ok);

  /// Requests currently in flight or queued (reporting/tests).
  std::size_t outstanding() const {
    std::size_t queued = 0;
    for (const auto& q : queues_) queued += q.size();
    return inflight_.size() + queued;
  }

 private:
  /// Executes every queued request of `queue` as one wire message.
  double flush_queue(std::uint32_t queue, double t, fault::FaultInjector* inj);
  /// Frees already-elapsed completions; when the window is still full,
  /// advances `t` to the earliest completion (a window stall).
  double take_slot(double t);
  void note_inflight(double completion);
  /// True when a tracer with live subscribers is attached — the gate for
  /// the per-request monitor spans (and the req args downstream), so
  /// unmonitored traces stay byte-identical.
  bool monitoring() const {
    return ctx_ != nullptr && ctx_->tracer != nullptr &&
           ctx_->tracer->has_subscribers();
  }
  /// Emits the rpc_req / rpc_req_fail span for one completed request:
  /// span [submit_t, done] on the client track with the queue / stall /
  /// retry / wire attribution args (service is the remainder).
  void emit_req_span(const Route& route, double submit_t, double pre_slot_t,
                     double exec_start_t, double done, const ExecInfo& info,
                     bool ok);

  EngineConfig cfg_;
  std::vector<std::vector<Request>> queues_;
  /// Min-heap of in-flight completion times.
  std::priority_queue<double, std::vector<double>, std::greater<double>> inflight_;
  bool async_error_ = false;
  EngineStats stats_;

  obs::Context* ctx_ = nullptr;
  std::uint32_t track_ = 0;
  obs::Counter* c_submitted_ = nullptr;
  obs::Counter* c_messages_ = nullptr;
  obs::Counter* c_stalls_ = nullptr;
  obs::Counter* c_drains_ = nullptr;
};

}  // namespace pdsi::rpc
