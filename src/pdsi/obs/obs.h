// pdsi::obs — virtual-time tracing and metrics for the simulator.
//
// The PDSI report's method is explaining *why* parallel I/O collapses
// (lock convoys, seek storms, incast); a number without its event
// timeline cannot do that. This layer records begin/end spans and instant
// events stamped with sim virtual time plus named counters / gauges /
// fixed-bucket histograms, and exports them two ways:
//   * Chrome trace_event JSON  — load in chrome://tracing or Perfetto;
//   * compact text             — canonical, sorted, fixed-precision, used
//                                as a golden-file regression oracle (same
//                                seed => byte-identical trace).
//
// Zero overhead when disabled: instrumented subsystems hold an
// `obs::Context*` that defaults to nullptr, and every instrumentation
// site is a branch-on-null. Nothing is allocated, hashed or locked unless
// a context is installed.
//
// Determinism: events may be appended from many rank threads, so the
// global append order is not reproducible — but each event carries a
// per-track sequence number, and exporters sort by (time, track, seq).
// Appends to one track happen either from that track's own thread in
// program order or inside VirtualScheduler::atomically sections (which
// are totally ordered by the scheduler), so per-track sequences are
// exact across reruns and the sorted export is byte-stable.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pdsi::obs {

// -- Metric instruments ------------------------------------------------------

/// Monotonic integer counter. Lock-free; sums are order-independent, so
/// concurrent increments stay deterministic.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Double-valued gauge/accumulator (queue depths, busy seconds). add() is
/// order-sensitive in floating point; call it only from deterministic
/// contexts (inside atomically sections or a single thread) if the value
/// feeds a golden file.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double dv) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + dv, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples in (bounds[i-1],
/// bounds[i]], plus one overflow bucket. Integer counts, so concurrent
/// adds are order-independent.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double v);
  std::uint64_t total() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// counts()[i] pairs with bounds()[i]; the final element is overflow.
  std::vector<std::uint64_t> counts() const;

  /// Quantile estimate (q in [0, 1]) assuming samples are spread linearly
  /// within their bucket. The first bucket interpolates from 0 (the
  /// instruments record non-negative latencies/sizes); the overflow
  /// bucket has no upper edge, so any rank landing there reports the
  /// highest finite bound. An empty histogram reports 0.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> counts_;
};

/// Named instruments. Instances are created on first use and their
/// addresses are stable for the registry's lifetime — instrumented
/// objects look up once at construction and then poke the raw pointer.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` applies on first creation only (ascending).
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);

  /// Canonical text dump, sorted by instrument name:
  ///   counter <name> <value>
  ///   gauge <name> <%.9g>
  ///   hist <name> le<bound>=<count> ... inf=<count>
  void write_text(std::ostream& os) const;

  /// The same content as JSON (one object with "counters", "gauges" and
  /// "hists" members, names sorted, fixed %.9g number formatting) so
  /// dumps are machine-readable and byte-stable for golden comparisons.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// -- Tracing -----------------------------------------------------------------

/// A numeric span/instant argument. Keys must be string literals (the
/// tracer stores the pointer, not a copy).
struct Arg {
  const char* key;
  bool integral;
  std::uint64_t u;
  double d;

  static Arg Int(const char* k, std::uint64_t v) { return {k, true, v, 0.0}; }
  static Arg Num(const char* k, double v) { return {k, false, 0, v}; }
};

/// Well-known track (Chrome "tid") assignments. Ranks own [0, 500).
inline constexpr std::uint32_t kRankTrackBase = 0;
inline constexpr std::uint32_t kMdsTrack = 500;
inline constexpr std::uint32_t kBbIngestTrack = 600;
inline constexpr std::uint32_t kBbDrainTrack = 601;
inline constexpr std::uint32_t kReaderTrackBase = 700;
inline constexpr std::uint32_t kFlattenTrack = 750;
inline constexpr std::uint32_t kCheckpointTrack = 800;
inline constexpr std::uint32_t kCheckpointDrainTrack = 801;
inline constexpr std::uint32_t kFaultTrack = 900;
inline constexpr std::uint32_t kTierTrack = 950;
inline constexpr std::uint32_t kConsistTrack = 980;
inline constexpr std::uint32_t kOssTrackBase = 1000;

/// Read-only view of one recorded event, for analysis passes (the
/// profile/critical-path modules). Pointers borrow from the Tracer and
/// are only valid during the visitation callback.
struct EventView {
  double ts;
  double dur;  ///< < 0 for instants
  std::uint32_t track;
  std::uint64_t seq;
  const char* name;
  const char* cat;
  const Arg* args;
  std::uint32_t nargs;
};

class MonitorSink;

class Tracer {
 public:
  static constexpr std::size_t kMaxArgs = 6;

  /// Names a track (idempotent; first name wins). Unnamed tracks export
  /// as "track<id>".
  void track(std::uint32_t id, const std::string& name);

  /// Bounds the event buffer: once `cap` events are stored, further
  /// appends are counted in dropped_events() and discarded (keep-oldest
  /// policy), so week-long sims cannot grow the tracer without bound.
  /// 0 (the default) means unlimited. Which events are dropped is exact
  /// and reproducible only under the same deterministic-append invariant
  /// the per-track sequence numbers rely on (single thread or
  /// `atomically` sections); racing appends keep the count exact but may
  /// vary which side of the cap an event lands on.
  void set_max_events(std::size_t cap);
  std::uint64_t dropped_events() const;
  /// Mirrors every drop into `c` (e.g. a Registry counter named
  /// "obs.dropped_events") so metric dumps expose trace truncation.
  void bind_drop_counter(Counter* c);

  /// A span [start, end] on `track`. Chrome phase 'X'. A non-zero `req`
  /// (the client's causal request id) is appended as a "req" arg only
  /// while a sink is subscribed, so unmonitored traces stay identical.
  void complete(std::uint32_t track, const char* name, const char* cat,
                double start, double end, std::initializer_list<Arg> args = {},
                std::uint64_t req = 0);

  /// A point event at `ts`. Chrome phase 'i'.
  void instant(std::uint32_t track, const char* name, const char* cat, double ts,
               std::initializer_list<Arg> args = {});

  std::size_t size() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}; ts/dur in
  /// microseconds of virtual time). Sorted like the compact export.
  void write_chrome(std::ostream& os) const;

  /// Canonical golden-file format, one event per line sorted by
  /// (ts, track, per-track seq), fixed-precision timestamps:
  ///   <ts %.9f> <track-name> <X|i> <cat>:<name> [dur=<%.9f>] [k=v ...]
  void write_compact(std::ostream& os) const;

  /// Visits every event in the canonical (ts, track, seq) order, with the
  /// track's name resolved ("track<id>" when unnamed). This is the
  /// in-process feed for profile/critical-path analysis; the views and
  /// their pointers are invalid after the callback returns.
  void for_each_sorted(
      const std::function<void(const EventView&, const std::string& track_name)>&
          fn) const;

  // -- Streaming subscribers -------------------------------------------------
  //
  // A subscribed MonitorSink observes the event stream *online*, in the
  // same canonical (ts, track, seq) order the exporters use, and sees
  // every event *before* the set_max_events keep-oldest cap can drop it
  // — a capped tracer feeds its sinks exactly what an uncapped run
  // would. Delivery is pull-based: appends land in a pending queue, and
  // the driving thread releases them with pump_subscribers(watermark)
  // at points where it can guarantee that every event with ts <
  // watermark has already been appended (sync points, barriers,
  // drains). flush_subscribers() delivers the remainder and closes the
  // stream. With no sinks attached, has_subscribers() is false and
  // nothing beyond the normal append happens — the zero-observer-effect
  // gate for the instrumentation sites that emit extra detail only when
  // someone is watching.

  /// Attaches `sink` (not owned; must outlive the tracer or the final
  /// flush). All sinks see the identical stream.
  void subscribe(MonitorSink* sink);

  /// True when at least one sink is attached. Lock-free; instrumentation
  /// sites branch on this to emit monitor-only spans/args.
  bool has_subscribers() const {
    return has_subscribers_.load(std::memory_order_relaxed);
  }

  /// Delivers every pending event with ts < watermark to the sinks in
  /// canonical order. The caller guarantees no later append will carry
  /// ts < watermark; events at or after the watermark stay queued.
  void pump_subscribers(double watermark);

  /// Delivers everything still pending, then calls finish(now) on every
  /// sink. Idempotent per subscription set.
  void flush_subscribers(double now);

 private:
  struct Event {
    double ts;
    double dur;  ///< < 0 for instants
    std::uint32_t track;
    std::uint64_t seq;  ///< per-track append index
    const char* name;
    const char* cat;
    Arg args[kMaxArgs];
    std::uint32_t nargs;
  };

  void push(std::uint32_t track, const char* name, const char* cat, double ts,
            double dur, std::initializer_list<Arg> args, std::uint64_t req);
  std::vector<const Event*> sorted() const;  ///< callers must hold mu_
  void deliver(double watermark, bool all);
  std::string track_name_locked(std::uint32_t id) const;

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<std::uint32_t, std::string> track_names_;
  std::map<std::uint32_t, std::uint64_t> track_seq_;
  std::size_t max_events_ = 0;  ///< 0 = unlimited
  std::uint64_t dropped_ = 0;
  Counter* drop_counter_ = nullptr;
  // Subscriber state. pending_ events carry their own per-track sequence
  // (sub_seq_) advanced on *every* append — dropped or stored — so the
  // subscriber stream is the uncapped run's canonical order even when
  // the event buffer is capped.
  std::vector<MonitorSink*> sinks_;
  std::vector<Event> pending_;
  std::map<std::uint32_t, std::uint64_t> sub_seq_;
  std::uint64_t delivered_ = 0;  ///< running canonical index fed to sinks
  std::atomic<bool> has_subscribers_{false};
};

// -- The switch --------------------------------------------------------------

/// One pointer threaded through construction turns the stack observable;
/// nullptr (the default everywhere) compiles instrumentation down to a
/// skipped branch. Either member may be null independently.
struct Context {
  Tracer* tracer = nullptr;
  Registry* registry = nullptr;
};

/// Convenience latency bucket set (seconds, log-spaced) shared by the
/// subsystem histograms so dumps line up.
std::vector<double> LatencyBuckets();

}  // namespace pdsi::obs
