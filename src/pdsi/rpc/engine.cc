#include "pdsi/rpc/engine.h"

#include <algorithm>

#include "pdsi/fault/fault.h"

namespace pdsi::rpc {

double RetryPolicy::penalty(std::uint32_t attempt) const {
  return rpc_timeout_s +
         retry_backoff_s * static_cast<double>(1u << std::min(attempt, 20u));
}

void RequestEngine::configure(const EngineConfig& cfg, std::uint32_t num_queues,
                              obs::Context* ctx, std::uint32_t track) {
  cfg_ = cfg;
  cfg_.window = std::max<std::uint32_t>(1, cfg_.window);
  cfg_.batch = std::max<std::uint32_t>(1, cfg_.batch);
  queues_.assign(num_queues, {});
  ctx_ = ctx;
  track_ = track;
  // Instruments exist only for pipelined clients, so default (sync) runs
  // keep their metric dumps byte-identical.
  if (ctx_ && ctx_->registry && cfg_.pipelined()) {
    auto& r = *ctx_->registry;
    c_submitted_ = &r.counter("rpc.submitted");
    c_messages_ = &r.counter("rpc.messages");
    c_stalls_ = &r.counter("rpc.window_stalls");
    c_drains_ = &r.counter("rpc.drains");
  }
}

double RequestEngine::execute(const Route& route, ServeRef serve,
                              FailoverRef failover, double t,
                              fault::FaultInjector* inj, bool charge_wire,
                              bool* ok, ExecInfo* info) {
  *ok = true;
  if (!inj || route.fault_exempt) {
    if (info) info->served_wire = charge_wire;
    return serve(t, charge_wire);
  }
  const fault::FaultPlan& plan = inj->plan();
  const RetryPolicy policy{plan.rpc_timeout_s, plan.retry_backoff_s,
                           plan.max_retries};
  double at = t;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool is_down = inj->down(route.queue, at);
    if (!is_down && !(route.drop_eligible && inj->drop_rpc(route.queue))) {
      if (info) info->served_wire = charge_wire;
      return serve(at, charge_wire);
    }
    if (!is_down) inj->note_drop(route.queue, at);
    // Failover kicks in from the second attempt: the crash is detected by
    // the first timeout, never predicted.
    if (is_down && failover && plan.read_failover && attempt > 0) {
      bool served = false;
      const double done = failover(at, &served);
      // A survivor's answer is service time, not wire: the failover
      // callback owns its own latency accounting.
      if (served) return done;
    }
    if (attempt >= plan.max_retries) break;
    const double penalty = policy.penalty(attempt);
    inj->note_retry(route.queue, at, at + penalty);
    at += penalty;
    if (info) info->retry_s += penalty;
  }
  *ok = false;
  stats_.failures++;
  return at;
}

void RequestEngine::emit_req_span(const Route& route, double submit_t,
                                  double pre_slot_t, double exec_start_t,
                                  double done, const ExecInfo& info, bool ok) {
  // queue covers submit -> wire flush (batch wait plus any predecessor's
  // retries within the same message); stall is this request's own window
  // wait; service is whatever end-to-end time the other classes leave —
  // the identity total == queue + stall + retry + wire + service is exact
  // by construction.
  const double wire_s = info.served_wire ? cfg_.wire_latency_s : 0.0;
  ctx_->tracer->complete(track_, ok ? "rpc_req" : "rpc_req_fail", "rpc",
                         submit_t, done,
                         {obs::Arg::Int("req", route.req_id),
                          obs::Arg::Int("srv", route.queue),
                          obs::Arg::Num("queue_s", pre_slot_t - submit_t),
                          obs::Arg::Num("stall_s", exec_start_t - pre_slot_t),
                          obs::Arg::Num("retry_s", info.retry_s),
                          obs::Arg::Num("wire_s", wire_s)});
}

void RequestEngine::note_inflight(double completion) {
  inflight_.push(completion);
  stats_.max_inflight =
      std::max<std::uint64_t>(stats_.max_inflight, inflight_.size());
}

double RequestEngine::take_slot(double t) {
  // Completions that already elapsed free their slots without advancing
  // the clock; a still-full window stalls the client until the earliest
  // outstanding request lands.
  while (!inflight_.empty() && inflight_.top() <= t) inflight_.pop();
  if (inflight_.size() < cfg_.window) return t;
  const double resume = inflight_.top();
  inflight_.pop();
  stats_.window_stalls++;
  stats_.stall_s += resume - t;
  if (c_stalls_) c_stalls_->add(1);
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(track_, "rpc_stall", "rpc", t, resume);
  }
  while (!inflight_.empty() && inflight_.top() <= resume) inflight_.pop();
  return resume;
}

double RequestEngine::flush_queue(std::uint32_t queue, double t,
                                  fault::FaultInjector* inj) {
  auto pending = std::move(queues_[queue]);
  queues_[queue].clear();
  if (pending.empty()) return t;
  stats_.messages++;
  stats_.batched_tails += pending.size() - 1;
  if (c_messages_) c_messages_->add(1);
  const bool mon = monitoring();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const double pre_slot_t = t;
    t = take_slot(t);
    bool ok = true;
    ExecInfo info;
    // The message head pays the one-way wire latency; coalesced tails
    // enter the server pipeline with it already charged.
    const double done = execute(pending[i], pending[i].serve, {}, t, inj,
                                /*charge_wire=*/i == 0, &ok,
                                mon ? &info : nullptr);
    if (!ok) async_error_ = true;
    if (mon) {
      emit_req_span(pending[i], pending[i].submit_t, pre_slot_t, t, done, info,
                    ok);
    }
    // Failed requests still occupy their slot until the backoff schedule
    // ran out — the time spent retrying is real and drain() awaits it.
    note_inflight(done);
  }
  return t;
}

double RequestEngine::submit(Request req, double t, fault::FaultInjector* inj) {
  stats_.submitted++;
  if (c_submitted_) c_submitted_->add(1);
  req.submit_t = t;
  const std::uint32_t queue = req.queue;
  queues_[queue].push_back(std::move(req));
  if (queues_[queue].size() >= cfg_.batch) return flush_queue(queue, t, inj);
  return t;
}

double RequestEngine::drain(double t, fault::FaultInjector* inj, bool* ok) {
  *ok = true;
  if (!cfg_.pipelined()) return t;  // nothing is ever queued or in flight
  const double start = t;
  for (std::uint32_t q = 0; q < queues_.size(); ++q) {
    if (!queues_[q].empty()) t = flush_queue(q, t, inj);
  }
  while (!inflight_.empty()) {
    t = std::max(t, inflight_.top());
    inflight_.pop();
  }
  *ok = !async_error_;
  async_error_ = false;
  stats_.drains++;
  if (c_drains_) c_drains_->add(1);
  if (ctx_ && ctx_->tracer && t > start) {
    ctx_->tracer->complete(track_, "rpc_drain", "rpc", start, t);
  }
  return t;
}

}  // namespace pdsi::rpc
