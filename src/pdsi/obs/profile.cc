#include "pdsi/obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "pdsi/obs/format.h"

namespace pdsi::obs {
namespace {

/// Union length of [start, end) intervals; `ivs` is sorted in place.
double UnionSeconds(std::vector<std::pair<double, double>>& ivs) {
  std::sort(ivs.begin(), ivs.end());
  double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : ivs) {
    if (!open || lo > cur_hi) {
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else if (hi > cur_hi) {
      cur_hi = hi;
    }
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

double AnalysisEvent::arg(const std::string& key, double def) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return def;
}

std::vector<AnalysisEvent> CollectEvents(const Tracer& tracer) {
  std::vector<AnalysisEvent> out;
  tracer.for_each_sorted([&](const EventView& e, const std::string& track) {
    AnalysisEvent a;
    a.ts = e.ts;
    a.dur = e.dur;
    a.track = track;
    a.cat = e.cat;
    a.name = e.name;
    for (std::uint32_t i = 0; i < e.nargs; ++i) {
      const Arg& arg = e.args[i];
      a.args.emplace_back(arg.key,
                          arg.integral ? static_cast<double>(arg.u) : arg.d);
    }
    out.push_back(std::move(a));
  });
  return out;
}

bool ParseCompactTrace(std::istream& in, std::vector<AnalysisEvent>* out,
                       std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& what) {
    if (error) {
      *error = "line " + std::to_string(lineno) + ": " + what;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> tok;
    std::istringstream ls(line);
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.size() < 4) return fail("expected `<ts> <track> <X|i> <cat>:<name>`");
    AnalysisEvent e;
    char* endp = nullptr;
    e.ts = std::strtod(tok[0].c_str(), &endp);
    if (endp == tok[0].c_str() || *endp != '\0') return fail("bad timestamp");
    e.track = tok[1];
    const bool span = tok[2] == "X";
    if (!span && tok[2] != "i") return fail("bad phase `" + tok[2] + "`");
    const std::size_t colon = tok[3].find(':');
    if (colon == std::string::npos) return fail("missing cat:name separator");
    e.cat = tok[3].substr(0, colon);
    e.name = tok[3].substr(colon + 1);
    std::size_t next = 4;
    if (span) {
      if (tok.size() < 5 || tok[4].rfind("dur=", 0) != 0) {
        return fail("span without dur=");
      }
      e.dur = std::strtod(tok[4].c_str() + 4, &endp);
      if (*endp != '\0' || e.dur < 0.0) return fail("bad dur");
      next = 5;
    }
    for (; next < tok.size(); ++next) {
      const std::size_t eq = tok[next].find('=');
      if (eq == std::string::npos) return fail("bad arg `" + tok[next] + "`");
      const std::string val = tok[next].substr(eq + 1);
      const double v = std::strtod(val.c_str(), &endp);
      if (endp == val.c_str() || *endp != '\0') {
        return fail("non-numeric arg `" + tok[next] + "`");
      }
      e.args.emplace_back(tok[next].substr(0, eq), v);
    }
    out->push_back(std::move(e));
  }
  return true;
}

// -- LogDigest ---------------------------------------------------------------

void LogDigest::add(double v) {
  ++count_;
  if (!(v > 0.0)) {
    ++zero_;
    return;
  }
  // frexp: v = f * 2^e with f in [0.5, 1). The sub-bucket index inside
  // the power of two is floor((f - 0.5) * 2 * kSubBuckets) — pure
  // IEEE arithmetic, no libm rounding differences across platforms.
  int e = 0;
  const double f = std::frexp(v, &e);
  int sub = static_cast<int>((f - 0.5) * (2 * kSubBuckets));
  if (sub < 0) sub = 0;
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  ++buckets_[static_cast<std::int64_t>(e) * kSubBuckets + sub];
}

double LogDigest::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count_);
  double cum = static_cast<double>(zero_);
  if (rank <= cum && zero_ > 0) return 0.0;
  for (const auto& [key, n] : buckets_) {
    const double next = cum + static_cast<double>(n);
    if (rank <= next || key == buckets_.rbegin()->first) {
      const auto e = static_cast<int>(key >= 0 ? key / kSubBuckets
                                               : (key - (kSubBuckets - 1)) / kSubBuckets);
      const auto sub = static_cast<int>(key - static_cast<std::int64_t>(e) * kSubBuckets);
      const double lo = std::ldexp(0.5 + sub / (2.0 * kSubBuckets), e);
      const double hi = std::ldexp(0.5 + (sub + 1) / (2.0 * kSubBuckets), e);
      double frac = (rank - cum) / static_cast<double>(n);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return 0.0;
}

// -- Profile -----------------------------------------------------------------

Profile Profile::Build(const std::vector<AnalysisEvent>& events,
                       const ProfileOptions& options) {
  Profile p;
  p.n_events_ = events.size();
  if (events.empty()) return p;

  p.t0_ = std::numeric_limits<double>::infinity();
  p.t1_ = -std::numeric_limits<double>::infinity();
  for (const AnalysisEvent& e : events) {
    p.t0_ = std::min(p.t0_, e.ts);
    p.t1_ = std::max(p.t1_, e.end());
  }

  // Deterministic span order regardless of input order: sort indices by
  // (track, ts, -dur, cat:name, original index).
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].is_span()) order.push_back(i);
  }
  p.n_spans_ = order.size();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const AnalysisEvent& x = events[a];
    const AnalysisEvent& y = events[b];
    if (x.track != y.track) return x.track < y.track;
    if (x.ts != y.ts) return x.ts < y.ts;
    if (x.dur != y.dur) return x.dur > y.dur;  // parents before children
    return a < b;
  });

  // Self time: within one track, a span's self time is its duration
  // minus the durations of spans directly nested inside it (containment
  // by [ts, end]; partial overlaps are not subtracted). The stack walk
  // below is the standard flame-graph attribution.
  std::vector<double> self(events.size(), 0.0);
  {
    struct Open {
      std::size_t idx;
      double end;
      double child_total = 0.0;
    };
    std::vector<Open> stack;
    std::string cur_track;
    auto close_all = [&](double upto) {
      while (!stack.empty() && stack.back().end <= upto) {
        const Open top = stack.back();
        stack.pop_back();
        double s = events[top.idx].dur - top.child_total;
        self[top.idx] = s > 0.0 ? s : 0.0;
        if (!stack.empty()) stack.back().child_total += events[top.idx].dur;
      }
    };
    for (std::size_t i : order) {
      const AnalysisEvent& e = events[i];
      if (e.track != cur_track) {
        close_all(std::numeric_limits<double>::infinity());
        cur_track = e.track;
      }
      close_all(e.ts);
      if (!stack.empty() && e.end() > stack.back().end) {
        // Partial overlap: attribute nothing, keep the enclosing span.
        self[i] = e.dur;
        continue;
      }
      stack.push_back({i, e.end(), 0.0});
    }
    close_all(std::numeric_limits<double>::infinity());
  }

  // Per-key aggregates and per-track class sums + coverage intervals.
  std::map<std::string, std::vector<std::pair<double, double>>> coverage;
  for (std::size_t i : order) {
    const AnalysisEvent& e = events[i];
    SpanStats& st = p.spans_[e.track + ' ' + e.cat + ':' + e.name];
    if (st.count == 0) {
      st.min = e.dur;
      st.max = e.dur;
    } else {
      st.min = std::min(st.min, e.dur);
      st.max = std::max(st.max, e.dur);
    }
    ++st.count;
    st.total += e.dur;
    st.self += self[i];
    st.digest.add(e.dur);

    TrackBreakdown& tb = p.tracks_[e.track];
    if (e.name == "lock_wait") {
      tb.lock_wait += e.dur;
    } else if (e.name == "stall") {
      tb.stall += e.dur;
    } else if (e.cat == "disk") {
      double seek = e.arg("seek_s", 0.0);
      if (seek < 0.0) seek = 0.0;
      if (seek > e.dur) seek = e.dur;
      tb.seek += seek;
      tb.transfer += e.dur - seek;
    }
    coverage[e.track].emplace_back(e.ts, e.end());
  }

  const double window = p.t1_ - p.t0_;
  for (auto& [track, ivs] : coverage) {
    TrackBreakdown& tb = p.tracks_[track];
    tb.covered = UnionSeconds(ivs);  // sorts ivs
    double busy = tb.covered - tb.lock_wait - tb.stall - tb.seek - tb.transfer;
    tb.busy = busy > 0.0 ? busy : 0.0;
    double idle = window - tb.covered;
    tb.idle = idle > 0.0 ? idle : 0.0;

    tb.utilization.assign(options.timeline_bins, 0.0);
    if (window > 0.0 && options.timeline_bins > 0) {
      const double bin_w = window / static_cast<double>(options.timeline_bins);
      // ivs is sorted but may overlap; merge into disjoint intervals so
      // a bin's covered fraction never exceeds 1.
      std::vector<std::pair<double, double>> merged;
      for (const auto& iv : ivs) {
        if (merged.empty() || iv.first > merged.back().second) {
          merged.push_back(iv);
        } else if (iv.second > merged.back().second) {
          merged.back().second = iv.second;
        }
      }
      for (const auto& [lo, hi] : merged) {
        const std::size_t b0 = static_cast<std::size_t>(
            std::min(std::max((lo - p.t0_) / bin_w, 0.0),
                     static_cast<double>(options.timeline_bins - 1)));
        for (std::size_t b = b0; b < options.timeline_bins; ++b) {
          const double blo = p.t0_ + static_cast<double>(b) * bin_w;
          const double bhi = blo + bin_w;
          if (lo >= bhi) continue;
          if (hi <= blo) break;
          tb.utilization[b] += (std::min(hi, bhi) - std::max(lo, blo)) / bin_w;
        }
      }
      for (double& u : tb.utilization) {
        if (u > 1.0) u = 1.0;
      }
    }
  }
  return p;
}

void Profile::write_text(std::ostream& os) const {
  os << "profile: window [" << FmtFixed(t0_, 9) << ", " << FmtFixed(t1_, 9)
     << "] " << FmtFixed(t1_ - t0_, 9) << "s, " << n_events_ << " events, "
     << n_spans_ << " spans\n";
  if (spans_.empty()) return;

  // Span table sorted by total descending, key ascending on ties.
  std::vector<const std::pair<const std::string, SpanStats>*> rows;
  for (const auto& kv : spans_) rows.push_back(&kv);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->second.total != b->second.total) return a->second.total > b->second.total;
    return a->first < b->first;
  });
  os << "\nspan (track cat:name)                 count      total       self"
        "        min        max        p50        p90        p99\n";
  for (const auto* kv : rows) {
    const SpanStats& s = kv->second;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-36s %6llu %10.6f %10.6f %10.6f %10.6f %10.6f %10.6f %10.6f\n",
                  kv->first.c_str(), static_cast<unsigned long long>(s.count),
                  s.total, s.self, s.min, s.max, s.digest.quantile(0.5),
                  s.digest.quantile(0.9), s.digest.quantile(0.99));
    os << line;
  }

  os << "\ntrack breakdown (seconds over the window)\n"
     << "track              busy       idle  lock_wait       seek   transfer"
        "      stall    covered\n";
  for (const auto& [track, tb] : tracks_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-12s %10.6f %10.6f %10.6f %10.6f %10.6f %10.6f %10.6f\n",
                  track.c_str(), tb.busy, tb.idle, tb.lock_wait, tb.seek,
                  tb.transfer, tb.stall, tb.covered);
    os << line;
  }

  os << "\nutilization timeline (covered fraction per bin)\n";
  for (const auto& [track, tb] : tracks_) {
    os << track;
    for (double u : tb.utilization) os << ' ' << FmtFixed(u, 3);
    os << '\n';
  }
}

void Profile::write_json(std::ostream& os) const {
  os << "{\"window\": {\"start\": " << FmtG(t0_) << ", \"end\": " << FmtG(t1_)
     << ", \"seconds\": " << FmtG(t1_ - t0_) << "}, \"events\": " << n_events_
     << ", \"spans_total\": " << n_spans_ << ", \"spans\": {";
  bool first = true;
  for (const auto& [key, s] : spans_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << EscapeJson(key) << "\": {\"count\": " << s.count
       << ", \"total_s\": " << FmtG(s.total) << ", \"self_s\": " << FmtG(s.self)
       << ", \"min_s\": " << FmtG(s.min) << ", \"max_s\": " << FmtG(s.max)
       << ", \"p50_s\": " << FmtG(s.digest.quantile(0.5))
       << ", \"p90_s\": " << FmtG(s.digest.quantile(0.9))
       << ", \"p99_s\": " << FmtG(s.digest.quantile(0.99)) << '}';
  }
  os << "}, \"tracks\": {";
  first = true;
  for (const auto& [track, tb] : tracks_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << EscapeJson(track) << "\": {\"busy_s\": " << FmtG(tb.busy)
       << ", \"idle_s\": " << FmtG(tb.idle)
       << ", \"lock_wait_s\": " << FmtG(tb.lock_wait)
       << ", \"seek_s\": " << FmtG(tb.seek)
       << ", \"transfer_s\": " << FmtG(tb.transfer)
       << ", \"stall_s\": " << FmtG(tb.stall)
       << ", \"covered_s\": " << FmtG(tb.covered) << ", \"utilization\": [";
    for (std::size_t i = 0; i < tb.utilization.size(); ++i) {
      if (i) os << ", ";
      os << FmtFixed(tb.utilization[i], 3);
    }
    os << "]}";
  }
  os << "}}\n";
}

void Profile::write_summary_fields(std::ostream& os) const {
  double busy = 0.0, idle = 0.0, lock_wait = 0.0, seek = 0.0, transfer = 0.0,
         stall = 0.0;
  for (const auto& [track, tb] : tracks_) {
    busy += tb.busy;
    idle += tb.idle;
    lock_wait += tb.lock_wait;
    seek += tb.seek;
    transfer += tb.transfer;
    stall += tb.stall;
  }
  const std::pair<const std::string, SpanStats>* top = nullptr;
  for (const auto& kv : spans_) {
    if (!top || kv.second.total > top->second.total) top = &kv;
  }
  os << "\"window_s\": " << FmtG(t1_ - t0_) << ", \"events\": " << n_events_
     << ", \"spans\": " << n_spans_ << ", \"busy_s\": " << FmtG(busy)
     << ", \"idle_s\": " << FmtG(idle)
     << ", \"lock_wait_s\": " << FmtG(lock_wait)
     << ", \"seek_s\": " << FmtG(seek)
     << ", \"transfer_s\": " << FmtG(transfer)
     << ", \"stall_s\": " << FmtG(stall);
  if (top) {
    os << ", \"top_span\": \"" << EscapeJson(top->first)
       << "\", \"top_span_total_s\": " << FmtG(top->second.total);
  }
}

}  // namespace pdsi::obs
