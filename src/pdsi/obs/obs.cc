#include "pdsi/obs/obs.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "pdsi/obs/format.h"
#include "pdsi/obs/monitor.h"

namespace pdsi::obs {

// -- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::add(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  std::lock_guard<std::mutex> lk(mu_);
  ++counts_[i];
}

std::uint64_t Histogram::total() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t t = 0;
  for (std::uint64_t c : counts_) t += c;
  return t;
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_;
}

double Histogram::quantile(double q) const {
  const auto counts = this->counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank in [0, total]; the sample at that cumulative position is read
  // off the bucket's linear CDF segment.
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (rank <= next || i + 1 == counts.size()) {
      if (i == bounds_.size()) {
        // Overflow bucket: no upper edge to interpolate towards.
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
    }
    cum = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

// -- Registry ----------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    // Histogram owns a mutex, so it must be built in place.
    it = histograms_
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(std::move(upper_bounds)))
             .first;
  }
  return it->second;
}

void Registry::write_text(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) {
    os << "counter " << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge " << name << ' ' << FmtG(g.value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "hist " << name;
    const auto counts = h.counts();
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      os << " le" << FmtG(h.bounds()[i]) << '=' << counts[i];
    }
    os << " inf=" << counts.back() << '\n';
  }
}

void Registry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << EscapeJson(name) << "\": " << c.value();
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << EscapeJson(name) << "\": " << FmtG(g.value());
  }
  os << "}, \"hists\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << EscapeJson(name) << "\": {\"le\": [";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) os << ", ";
      os << FmtG(h.bounds()[i]);
    }
    os << "], \"counts\": [";
    const auto counts = h.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) os << ", ";
      os << counts[i];
    }
    os << "]}";
  }
  os << "}}\n";
}

std::vector<double> LatencyBuckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
}

// -- Tracer ------------------------------------------------------------------

void Tracer::track(std::uint32_t id, const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  track_names_.emplace(id, name);
}

void Tracer::set_max_events(std::size_t cap) {
  std::lock_guard<std::mutex> lk(mu_);
  max_events_ = cap;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void Tracer::bind_drop_counter(Counter* c) {
  std::lock_guard<std::mutex> lk(mu_);
  drop_counter_ = c;
}

void Tracer::push(std::uint32_t track, const char* name, const char* cat,
                  double ts, double dur, std::initializer_list<Arg> args,
                  std::uint64_t req) {
  Event e;
  e.ts = ts;
  e.dur = dur;
  e.track = track;
  e.name = name;
  e.cat = cat;
  e.nargs = 0;
  for (const Arg& a : args) {
    if (e.nargs == kMaxArgs) break;
    e.args[e.nargs++] = a;
  }
  if (req != 0 && has_subscribers() && e.nargs < kMaxArgs) {
    e.args[e.nargs++] = Arg::Int("req", req);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!sinks_.empty()) {
    // Subscribers see the stream before the cap: a dropped event still
    // reaches every sink, with its own sequence counter so the delivery
    // order matches the uncapped run's canonical order.
    Event s = e;
    s.seq = sub_seq_[track]++;
    pending_.push_back(s);
  }
  if (max_events_ != 0 && events_.size() >= max_events_) {
    // Keep-oldest: the cap preserves the run's prefix (sequence numbers
    // are not consumed by dropped events, so the stored trace is exactly
    // what an uncapped run's first max_events appends would be).
    ++dropped_;
    if (drop_counter_) drop_counter_->add(1);
    return;
  }
  e.seq = track_seq_[track]++;
  events_.push_back(e);
}

void Tracer::complete(std::uint32_t track, const char* name, const char* cat,
                      double start, double end, std::initializer_list<Arg> args,
                      std::uint64_t req) {
  push(track, name, cat, start, end >= start ? end - start : 0.0, args, req);
}

void Tracer::instant(std::uint32_t track, const char* name, const char* cat,
                     double ts, std::initializer_list<Arg> args) {
  push(track, name, cat, ts, -1.0, args, 0);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

std::vector<const Tracer::Event*> Tracer::sorted() const {
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
    if (a->ts != b->ts) return a->ts < b->ts;
    if (a->track != b->track) return a->track < b->track;
    return a->seq < b->seq;
  });
  return order;
}

void Tracer::write_chrome(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const auto& [id, name] : track_names_) {
    sep();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " << id
       << ", \"args\": {\"name\": \"" << EscapeJson(name) << "\"}}";
  }
  for (const Event* e : sorted()) {
    sep();
    // Virtual seconds -> trace microseconds.
    os << "{\"name\": \"" << EscapeJson(e->name) << "\", \"cat\": \""
       << EscapeJson(e->cat) << "\", \"ph\": \"" << (e->dur < 0 ? 'i' : 'X')
       << "\", \"pid\": 0, \"tid\": " << e->track << ", \"ts\": "
       << FmtFixed(e->ts * 1e6, 3);
    if (e->dur < 0) {
      os << ", \"s\": \"t\"";
    } else {
      os << ", \"dur\": " << FmtFixed(e->dur * 1e6, 3);
    }
    if (e->nargs > 0) {
      os << ", \"args\": {";
      for (std::uint32_t i = 0; i < e->nargs; ++i) {
        if (i) os << ", ";
        os << "\"" << EscapeJson(e->args[i].key) << "\": ";
        if (e->args[i].integral) {
          os << e->args[i].u;
        } else {
          os << FmtG(e->args[i].d);
        }
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

void Tracer::for_each_sorted(
    const std::function<void(const EventView&, const std::string& track_name)>&
        fn) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const Event* e : sorted()) {
    EventView v{e->ts, e->dur, e->track, e->seq, e->name, e->cat, e->args,
                e->nargs};
    auto it = track_names_.find(e->track);
    if (it != track_names_.end()) {
      fn(v, it->second);
    } else {
      fn(v, "track" + std::to_string(e->track));
    }
  }
}

std::string Tracer::track_name_locked(std::uint32_t id) const {
  auto it = track_names_.find(id);
  if (it != track_names_.end()) return it->second;
  return "track" + std::to_string(id);
}

void Tracer::subscribe(MonitorSink* sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sinks_.push_back(sink);
  has_subscribers_.store(true, std::memory_order_relaxed);
}

void Tracer::deliver(double watermark, bool all) {
  // Extract the due batch under the lock, deliver outside it: sinks run
  // arbitrary analysis and must not deadlock against racing appends.
  struct Due {
    Event e;
    std::string track;
  };
  std::vector<Due> due;
  std::vector<MonitorSink*> sinks;
  std::uint64_t base = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (sinks_.empty()) return;
    sinks = sinks_;
    std::vector<Event> keep;
    for (const Event& e : pending_) {
      if (all || e.ts < watermark) {
        due.push_back({e, track_name_locked(e.track)});
      } else {
        keep.push_back(e);
      }
    }
    pending_ = std::move(keep);
    std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
      if (a.e.ts != b.e.ts) return a.e.ts < b.e.ts;
      if (a.e.track != b.e.track) return a.e.track < b.e.track;
      return a.e.seq < b.e.seq;
    });
    base = delivered_;
    delivered_ += due.size();
  }
  for (std::size_t i = 0; i < due.size(); ++i) {
    AnalysisEvent a;
    a.ts = due[i].e.ts;
    a.dur = due[i].e.dur;
    a.track = due[i].track;
    a.cat = due[i].e.cat;
    a.name = due[i].e.name;
    for (std::uint32_t k = 0; k < due[i].e.nargs; ++k) {
      const Arg& arg = due[i].e.args[k];
      a.args.emplace_back(arg.key,
                          arg.integral ? static_cast<double>(arg.u) : arg.d);
    }
    for (MonitorSink* s : sinks) s->on_event(a, base + i);
  }
}

void Tracer::pump_subscribers(double watermark) { deliver(watermark, false); }

void Tracer::flush_subscribers(double now) {
  deliver(0.0, true);
  std::vector<MonitorSink*> sinks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    sinks = sinks_;
  }
  for (MonitorSink* s : sinks) s->finish(now);
}

void Tracer::write_compact(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const Event* e : sorted()) {
    os << FmtFixed(e->ts, 9) << ' ';
    auto it = track_names_.find(e->track);
    if (it != track_names_.end()) {
      os << it->second;
    } else {
      os << "track" << e->track;
    }
    os << ' ' << (e->dur < 0 ? 'i' : 'X') << ' ' << e->cat << ':' << e->name;
    if (e->dur >= 0) os << " dur=" << FmtFixed(e->dur, 9);
    for (std::uint32_t i = 0; i < e->nargs; ++i) {
      os << ' ' << e->args[i].key << '=';
      if (e->args[i].integral) {
        os << e->args[i].u;
      } else {
        os << FmtG(e->args[i].d);
      }
    }
    os << '\n';
  }
}

}  // namespace pdsi::obs
