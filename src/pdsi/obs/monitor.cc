#include "pdsi/obs/monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pdsi/obs/format.h"

namespace pdsi::obs {
namespace {

std::string SpanKey(const AnalysisEvent& e) { return e.cat + ":" + e.name; }

}  // namespace

void ReplayEvents(const std::vector<AnalysisEvent>& events,
                  const std::vector<MonitorSink*>& sinks) {
  double end = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    end = std::max(end, events[i].end());
    for (MonitorSink* s : sinks) s->on_event(events[i], i);
  }
  for (MonitorSink* s : sinks) s->finish(end);
}

std::string FormatAlarm(const Alarm& a) {
  std::string out = "ALARM t=" + FmtFixed(a.ts, 9) + " " + a.kind + " " +
                    a.key + " value=" + FmtG(a.value) +
                    " limit=" + FmtG(a.threshold);
  if (!a.detail.empty()) out += " " + a.detail;
  return out;
}

// -- SloSink -----------------------------------------------------------------

SloSink::SloSink(std::vector<SloSpec> specs) {
  for (auto& s : specs) {
    State st;
    st.spec = std::move(s);
    states_.emplace(st.spec.key, std::move(st));
  }
}

std::uint64_t SloSink::samples(const std::string& key) const {
  auto it = states_.find(key);
  return it == states_.end() ? 0 : it->second.total;
}

void SloSink::on_event(const AnalysisEvent& e, std::uint64_t) {
  if (!e.is_span()) return;
  auto it = states_.find(SpanKey(e));
  if (it == states_.end()) return;
  State& st = it->second;
  const double end = e.end();
  st.window.emplace_back(end, e.dur);
  ++st.total;
  // Evict by span end time. Spans arrive sorted by start, not end, so an
  // unusually long span can land "late"; the window is still a pure
  // function of the stream because eviction only compares timestamps.
  while (!st.window.empty() &&
         st.window.front().first < end - st.spec.window_s) {
    st.window.pop_front();
  }
  if (st.window.size() < st.spec.min_samples) return;
  if (end < st.last_alarm + st.spec.cooldown_s) return;
  // Exact quantile over the window (nearest-rank on the sorted samples).
  std::vector<double> durs;
  durs.reserve(st.window.size());
  for (const auto& [ts, d] : st.window) durs.push_back(d);
  std::sort(durs.begin(), durs.end());
  const double q = st.spec.quantile;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(durs.size())));
  if (rank > 0) --rank;
  if (rank >= durs.size()) rank = durs.size() - 1;
  const double v = durs[rank];
  if (v > st.spec.threshold_s) {
    st.last_alarm = end;
    Alarm a;
    a.ts = end;
    a.kind = "slo";
    a.key = st.spec.key;
    a.value = v;
    a.threshold = st.spec.threshold_s;
    a.detail = "p" + FmtG(q * 100.0) + " over " +
               std::to_string(st.window.size()) + " samples in " +
               FmtG(st.spec.window_s) + "s window";
    alarms_.push_back(std::move(a));
  }
}

// -- WatermarkSink -----------------------------------------------------------

WatermarkSink::WatermarkSink(WatermarkSpec spec) : spec_(std::move(spec)) {}

void WatermarkSink::on_event(const AnalysisEvent& e, std::uint64_t) {
  if (!e.is_span()) return;
  if (!spec_.cats.empty() && spec_.cats.count(e.cat) == 0) return;
  State& st = states_[e.track];
  if (!st.any) {
    st.any = true;
    st.first_ts = e.ts;
  }
  // Retire spans that ended at or before this one's start; the rest are
  // concurrent with it.
  auto cmp = std::greater<double>();
  while (!st.ends.empty() && st.ends.front() <= e.ts) {
    std::pop_heap(st.ends.begin(), st.ends.end(), cmp);
    st.ends.pop_back();
  }
  const double end = e.end();
  st.ends.push_back(end);
  std::push_heap(st.ends.begin(), st.ends.end(), cmp);
  const std::uint64_t depth = st.ends.size();
  st.max_depth = std::max(st.max_depth, depth);
  // Covered-time union: spans arrive sorted by start.
  if (end > st.cover_until) {
    st.covered += end - std::max(e.ts, st.cover_until);
    st.cover_until = end;
  }
  end_ts_ = std::max(end_ts_, end);
  if (spec_.depth_limit != 0 && depth >= spec_.depth_limit &&
      e.ts >= st.last_alarm + spec_.cooldown_s) {
    st.last_alarm = e.ts;
    Alarm a;
    a.ts = e.ts;
    a.kind = "watermark";
    a.key = e.track;
    a.value = static_cast<double>(depth);
    a.threshold = static_cast<double>(spec_.depth_limit);
    a.detail = "concurrent spans at or over the depth limit";
    alarms_.push_back(std::move(a));
  }
}

void WatermarkSink::finish(double now) { end_ts_ = std::max(end_ts_, now); }

std::uint64_t WatermarkSink::max_depth(const std::string& track) const {
  auto it = states_.find(track);
  return it == states_.end() ? 0 : it->second.max_depth;
}

double WatermarkSink::utilization(const std::string& track) const {
  auto it = states_.find(track);
  if (it == states_.end() || !it->second.any) return 0.0;
  const double span = end_ts_ - it->second.first_ts;
  return span > 0.0 ? it->second.covered / span : 0.0;
}

void WatermarkSink::write_report(std::ostream& os) const {
  for (const auto& [track, st] : states_) {
    os << "watermark " << track << " depth=" << st.max_depth
       << " covered=" << FmtFixed(st.covered, 9)
       << " util=" << FmtG(utilization(track)) << '\n';
  }
}

// -- EwmaAnomalySink ---------------------------------------------------------

EwmaAnomalySink::EwmaAnomalySink(EwmaSpec spec) : spec_(std::move(spec)) {}

double EwmaAnomalySink::mean(const std::string& key) const {
  auto it = states_.find(key);
  return it == states_.end() ? 0.0 : it->second.mean;
}

void EwmaAnomalySink::on_event(const AnalysisEvent& e, std::uint64_t) {
  if (!e.is_span()) return;
  const std::string key = SpanKey(e);
  if (!spec_.keys.empty() && spec_.keys.count(key) == 0) return;
  State& st = states_[key];
  const double x = e.dur;
  if (st.n == 0) {
    st.mean = x;
    st.dev = 0.0;
    st.n = 1;
    return;
  }
  const double band = st.mean + spec_.k * st.dev;
  const double end = e.end();
  if (st.n >= spec_.warmup && x > band && x > spec_.min_abs_s &&
      end >= st.last_alarm + spec_.cooldown_s) {
    st.last_alarm = end;
    Alarm a;
    a.ts = end;
    a.kind = "anomaly";
    a.key = key;
    a.value = x;
    a.threshold = band;
    a.detail = "latency left the EWMA band (mean=" + FmtG(st.mean) +
               " dev=" + FmtG(st.dev) + ")";
    alarms_.push_back(std::move(a));
  }
  // Update after the verdict, so the anomalous sample does not dilute
  // the baseline it is judged against.
  const double err = x - st.mean;
  st.mean += spec_.alpha * err;
  st.dev += spec_.alpha * (std::fabs(err) - st.dev);
  ++st.n;
}

// -- RequestBreakdownSink ----------------------------------------------------

void RequestBreakdownSink::on_event(const AnalysisEvent& e, std::uint64_t) {
  if (!e.is_span() || e.cat != "rpc") return;
  const bool ok = e.name == "rpc_req";
  if (!ok && e.name != "rpc_req_fail") return;
  RequestBreakdown b;
  b.req = static_cast<std::uint64_t>(std::llround(e.arg("req", 0.0)));
  b.server = static_cast<std::uint64_t>(std::llround(e.arg("srv", 0.0)));
  b.client = e.track;
  b.start = e.ts;
  b.total_s = e.dur;
  b.queue_s = e.arg("queue_s", 0.0);
  b.stall_s = e.arg("stall_s", 0.0);
  b.retry_s = e.arg("retry_s", 0.0);
  b.wire_s = e.arg("wire_s", 0.0);
  b.service_s = b.total_s - b.queue_s - b.stall_s - b.retry_s - b.wire_s;
  b.ok = ok;
  reqs_.push_back(std::move(b));
}

bool RequestBreakdownSink::exact() const {
  // service is defined as the fixed-order remainder
  // total - queue - stall - retry - wire, so the identity is checked in
  // that same order — bitwise, no tolerance. What can genuinely fail is
  // a negative component (the engine double-charged a class) or a value
  // that no longer reproduces the remainder (a lossy trace round trip).
  constexpr double kEps = 1e-12;
  for (const auto& b : reqs_) {
    if (b.queue_s < -kEps || b.stall_s < -kEps || b.retry_s < -kEps ||
        b.wire_s < -kEps || b.service_s < -kEps) {
      return false;
    }
    const double remainder =
        b.total_s - b.queue_s - b.stall_s - b.retry_s - b.wire_s;
    if (b.service_s != remainder) return false;
  }
  return true;
}

void RequestBreakdownSink::write_table(std::ostream& os, std::size_t n) const {
  std::vector<const RequestBreakdown*> order;
  order.reserve(reqs_.size());
  for (const auto& b : reqs_) order.push_back(&b);
  std::sort(order.begin(), order.end(),
            [](const RequestBreakdown* a, const RequestBreakdown* b) {
              if (a->total_s != b->total_s) return a->total_s > b->total_s;
              return a->req < b->req;
            });
  if (order.size() > n) order.resize(n);
  os << "  req        client   srv      total_s      queue_s      stall_s"
        "      retry_s       wire_s    service_s ok\n";
  char buf[256];
  for (const RequestBreakdown* b : order) {
    std::snprintf(buf, sizeof(buf),
                  "  %-10llu %-8s %-3llu %12.9f %12.9f %12.9f %12.9f %12.9f "
                  "%12.9f %s\n",
                  static_cast<unsigned long long>(b->req), b->client.c_str(),
                  static_cast<unsigned long long>(b->server), b->total_s,
                  b->queue_s, b->stall_s, b->retry_s, b->wire_s, b->service_s,
                  b->ok ? "y" : "n");
    os << buf;
  }
  double tq = 0, ts = 0, tr = 0, tw = 0, tsvc = 0, tt = 0;
  for (const auto& b : reqs_) {
    tq += b.queue_s;
    ts += b.stall_s;
    tr += b.retry_s;
    tw += b.wire_s;
    tsvc += b.service_s;
    tt += b.total_s;
  }
  os << "  requests=" << reqs_.size() << " total=" << FmtG(tt)
     << " queue=" << FmtG(tq) << " stall=" << FmtG(ts) << " retry=" << FmtG(tr)
     << " wire=" << FmtG(tw) << " service=" << FmtG(tsvc) << '\n';
}

}  // namespace pdsi::obs
