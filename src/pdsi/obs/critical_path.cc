#include "pdsi/obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "pdsi/obs/format.h"

namespace pdsi::obs {
namespace {

/// Total order on spans used for every tie-break so the extracted path
/// is identical across runs and platforms.
bool SpanLess(const AnalysisEvent& a, const AnalysisEvent& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.dur != b.dur) return a.dur < b.dur;
  if (a.track != b.track) return a.track < b.track;
  if (a.cat != b.cat) return a.cat < b.cat;
  return a.name < b.name;
}

}  // namespace

CriticalPathResult ExtractCriticalPath(
    const std::vector<AnalysisEvent>& events) {
  CriticalPathResult out;
  std::vector<std::size_t> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].is_span()) spans.push_back(i);
  }
  if (spans.empty()) return out;

  // Spans sorted by end time: the predecessor query "latest end <= t" is
  // a binary search plus a scan over the equal-end run.
  std::sort(spans.begin(), spans.end(), [&](std::size_t a, std::size_t b) {
    const double ea = events[a].end(), eb = events[b].end();
    if (ea != eb) return ea < eb;
    return SpanLess(events[a], events[b]);
  });

  double t0 = std::numeric_limits<double>::infinity();
  for (std::size_t i : spans) t0 = std::min(t0, events[i].ts);
  const std::size_t terminal = spans.back();
  out.makespan = events[terminal].end() - t0;

  // Walk backwards. Among spans with the maximal end <= current.ts the
  // same-track one wins (program order continues the chain), then the
  // longest, then SpanLess order.
  std::vector<char> visited(events.size(), 0);
  std::vector<std::size_t> path;  // reverse chronological
  std::size_t cur = terminal;
  visited[cur] = 1;
  path.push_back(cur);
  while (true) {
    const AnalysisEvent& c = events[cur];
    // upper_bound over end times for the last span ending <= c.ts.
    std::size_t lo = 0, hi = spans.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (events[spans[mid]].end() <= c.ts) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) break;
    const double best_end = events[spans[lo - 1]].end();
    std::size_t best = events.size();
    for (std::size_t j = lo; j-- > 0;) {
      const std::size_t i = spans[j];
      if (events[i].end() != best_end) break;
      if (visited[i]) continue;
      if (best == events.size()) {
        best = i;
        continue;
      }
      const AnalysisEvent& x = events[i];
      const AnalysisEvent& y = events[best];
      const bool x_same = x.track == c.track, y_same = y.track == c.track;
      if (x_same != y_same) {
        if (x_same) best = i;
        continue;
      }
      if (x.dur != y.dur) {
        if (x.dur > y.dur) best = i;
        continue;
      }
      if (SpanLess(x, y)) best = i;
    }
    if (best == events.size()) break;
    visited[best] = 1;
    path.push_back(best);
    cur = best;
  }

  std::reverse(path.begin(), path.end());
  double prev_end = events[path.front()].ts;  // first step has no wait
  for (std::size_t i : path) {
    CriticalStep step;
    step.ev = events[i];
    step.wait_s = events[i].ts > prev_end ? events[i].ts - prev_end : 0.0;
    out.wait_seconds += step.wait_s;
    out.span_seconds += events[i].dur;
    prev_end = events[i].end();
    out.steps.push_back(std::move(step));
  }
  return out;
}

std::vector<std::pair<std::string, double>> CriticalPathResult::by_kind() const {
  std::map<std::string, double> agg;
  for (const CriticalStep& s : steps) {
    agg[s.ev.cat + ':' + s.ev.name] += s.ev.dur;
  }
  std::vector<std::pair<std::string, double>> out(agg.begin(), agg.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

void CriticalPathResult::write_text(std::ostream& os, std::size_t top_k) const {
  os << "critical path: " << steps.size() << " steps, makespan "
     << FmtFixed(makespan, 9) << "s, on-path spans " << FmtFixed(span_seconds, 9)
     << "s, waits " << FmtFixed(wait_seconds, 9) << "s\n";
  if (steps.empty()) return;

  os << "\ncontribution by span kind (cat:name, seconds on path)\n";
  for (const auto& [kind, secs] : by_kind()) {
    char line[192];
    std::snprintf(line, sizeof(line), "%-28s %12.6f\n", kind.c_str(), secs);
    os << line;
  }

  // Longest individual steps; ties broken by the global span order.
  std::vector<const CriticalStep*> longest;
  for (const CriticalStep& s : steps) longest.push_back(&s);
  std::sort(longest.begin(), longest.end(),
            [](const CriticalStep* a, const CriticalStep* b) {
              if (a->ev.dur != b->ev.dur) return a->ev.dur > b->ev.dur;
              return SpanLess(a->ev, b->ev);
            });
  if (longest.size() > top_k) longest.resize(top_k);
  os << "\ntop " << longest.size() << " steps\n";
  for (const CriticalStep* s : longest) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-12s %-24s start=%.9f dur=%.9f wait=%.9f\n",
                  s->ev.track.c_str(), (s->ev.cat + ':' + s->ev.name).c_str(),
                  s->ev.ts, s->ev.dur, s->wait_s);
    os << line;
  }
}

void CriticalPathResult::write_json(std::ostream& os, std::size_t top_k) const {
  os << "{\"steps\": " << steps.size() << ", \"makespan_s\": " << FmtG(makespan)
     << ", \"span_s\": " << FmtG(span_seconds)
     << ", \"wait_s\": " << FmtG(wait_seconds) << ", \"by_kind\": {";
  bool first = true;
  for (const auto& [kind, secs] : by_kind()) {
    if (!first) os << ", ";
    first = false;
    os << '"' << EscapeJson(kind) << "\": " << FmtG(secs);
  }
  os << "}, \"top_steps\": [";
  std::vector<const CriticalStep*> longest;
  for (const CriticalStep& s : steps) longest.push_back(&s);
  std::sort(longest.begin(), longest.end(),
            [](const CriticalStep* a, const CriticalStep* b) {
              if (a->ev.dur != b->ev.dur) return a->ev.dur > b->ev.dur;
              return SpanLess(a->ev, b->ev);
            });
  if (longest.size() > top_k) longest.resize(top_k);
  first = true;
  for (const CriticalStep* s : longest) {
    if (!first) os << ", ";
    first = false;
    os << "{\"track\": \"" << EscapeJson(s->ev.track) << "\", \"kind\": \""
       << EscapeJson(s->ev.cat + ':' + s->ev.name)
       << "\", \"start_s\": " << FmtG(s->ev.ts)
       << ", \"dur_s\": " << FmtG(s->ev.dur)
       << ", \"wait_s\": " << FmtG(s->wait_s) << '}';
  }
  os << "]}\n";
}

}  // namespace pdsi::obs
