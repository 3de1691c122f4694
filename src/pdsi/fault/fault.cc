#include "pdsi/fault/fault.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pdsi::fault {

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t num_servers,
                             obs::Context* ctx)
    : plan_(plan), ctx_(ctx) {
  windows_.resize(num_servers);
  degradations_.resize(num_servers);
  drop_rng_.reserve(num_servers);

  // One master stream forked per concern keeps the schedule for server s
  // independent of how many draws another server's schedule consumed.
  Rng master(plan_.seed);
  Rng crash_master = master.fork();
  Rng disk_master = master.fork();
  Rng drop_master = master.fork();

  for (std::uint32_t s = 0; s < num_servers; ++s) {
    Rng crash = crash_master.fork();
    if (plan_.oss_mtbf_s > 0.0) {
      double t = crash.exponential(plan_.oss_mtbf_s);
      while (t < plan_.horizon_s) {
        windows_[s].push_back({t, t + plan_.oss_restart_s});
        t += plan_.oss_restart_s + crash.exponential(plan_.oss_mtbf_s);
      }
    }
    Rng disk = disk_master.fork();
    if (plan_.slow_disk_prob > 0.0 && disk.chance(plan_.slow_disk_prob)) {
      // Degraded from the start: every request arrives after -infinity.
      degradations_[s].push_back(
          {-std::numeric_limits<double>::infinity(),
           {.disk = plan_.slow_disk_factor, .nic = 1.0, .cpu = 1.0}});
    }
    drop_rng_.push_back(drop_master.fork());
  }

  if (ctx_ && ctx_->registry) {
    c_retries_ = &ctx_->registry->counter("fault.retries");
    c_dropped_ = &ctx_->registry->counter("fault.dropped_rpcs");
    c_failovers_ = &ctx_->registry->counter("fault.failovers");
    c_drain_retries_ = &ctx_->registry->counter("fault.drain_retries");
  }
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->track(obs::kFaultTrack, "fault");
  }
}

bool FaultInjector::down(std::uint32_t server, double t) const {
  const auto& w = windows_[server];
  // First window beginning after t; the candidate is its predecessor.
  auto it = std::upper_bound(
      w.begin(), w.end(), t,
      [](double v, const Window& win) { return v < win.start; });
  return it != w.begin() && t < std::prev(it)->end;
}

double FaultInjector::next_up(std::uint32_t server, double t) const {
  const auto& w = windows_[server];
  auto it = std::upper_bound(
      w.begin(), w.end(), t,
      [](double v, const Window& win) { return v < win.start; });
  if (it != w.begin() && t < std::prev(it)->end) return std::prev(it)->end;
  return t;
}

Factors FaultInjector::factors(std::uint32_t server, double t) const {
  Factors out;
  for (const Degradation& d : degradations_[server]) {
    if (d.start < t) {
      out.disk *= d.factors.disk;
      out.nic *= d.factors.nic;
      out.cpu *= d.factors.cpu;
    }
  }
  return out;
}

std::uint64_t FaultInjector::crashes_between(std::uint32_t server, double since,
                                             double until) const {
  const auto& w = windows_[server];
  auto lo = std::upper_bound(
      w.begin(), w.end(), since,
      [](double v, const Window& win) { return v < win.start; });
  auto hi = std::upper_bound(
      w.begin(), w.end(), until,
      [](double v, const Window& win) { return v < win.start; });
  return static_cast<std::uint64_t>(hi - lo);
}

std::vector<double> FaultInjector::interrupt_times() const {
  std::vector<double> out;
  for (const auto& server : windows_) {
    for (const Window& w : server) out.push_back(w.start);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FaultInjector::force_down(std::uint32_t server, double start, double end) {
  assert(end > start);
  auto& w = windows_[server];
  w.push_back({start, end});
  std::sort(w.begin(), w.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  // Coalesce overlaps so down()/next_up() can assume disjoint windows.
  std::vector<Window> merged;
  for (const Window& win : w) {
    if (!merged.empty() && win.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, win.end);
    } else {
      merged.push_back(win);
    }
  }
  w = std::move(merged);
}

void FaultInjector::degrade(std::uint32_t server, double start_s,
                            const Factors& f) {
  degradations_[server].push_back({start_s, f});
}

bool FaultInjector::drop_rpc(std::uint32_t server) {
  if (plan_.rpc_drop_prob <= 0.0) return false;
  return drop_rng_[server].chance(plan_.rpc_drop_prob);
}

void FaultInjector::note_drop(std::uint32_t server, double t) {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  if (c_dropped_) c_dropped_->add();
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->instant(obs::kFaultTrack, "rpc_drop", "fault", t,
                          {obs::Arg::Int("server", server)});
  }
}

void FaultInjector::note_retry(std::uint32_t server, double start, double end) {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (c_retries_) c_retries_->add();
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(obs::kFaultTrack, "retry", "fault", start, end,
                           {obs::Arg::Int("server", server)});
  }
}

void FaultInjector::note_failover(std::uint32_t from, std::uint32_t to,
                                  double t) {
  failovers_.fetch_add(1, std::memory_order_relaxed);
  if (c_failovers_) c_failovers_->add();
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->instant(obs::kFaultTrack, "failover", "fault", t,
                          {obs::Arg::Int("from", from), obs::Arg::Int("to", to)});
  }
}

void FaultInjector::note_drain_retry(std::uint32_t server, double start,
                                     double end) {
  drain_retries_.fetch_add(1, std::memory_order_relaxed);
  if (c_drain_retries_) c_drain_retries_->add();
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->complete(obs::kFaultTrack, "drain_retry", "fault", start, end,
                           {obs::Arg::Int("server", server)});
  }
}

std::uint64_t FaultInjector::crash_count() const {
  std::uint64_t n = 0;
  for (const auto& server : windows_) n += server.size();
  return n;
}

}  // namespace pdsi::fault
