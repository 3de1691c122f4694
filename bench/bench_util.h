// Shared helpers for the per-figure benchmark harnesses: consistent
// banners and paper-vs-measured reporting so bench output can be pasted
// straight into EXPERIMENTS.md, Report (the one path for a bench's tables
// and BENCH_ rows), and a HOST_ line of the run's host cost on stderr at
// exit.
#pragma once

#include <errno.h>  // program_invocation_short_name
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/obs/format.h"
#include "pdsi/obs/obs.h"
#include "pdsi/obs/profile.h"
#include "pdsi/sim/virtual_time.h"

namespace pdsi::bench {

inline void Header(const std::string& experiment, const std::string& paper_claim) {
  std::cout << "==========================================================\n"
            << experiment << "\n"
            << "Paper: " << paper_claim << "\n"
            << "==========================================================\n";
}

inline void Note(const std::string& text) { std::cout << "note: " << text << "\n"; }

/// Keeps `value`, and the work that produced it, from being optimised
/// away inside a timing loop.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Host-time loop for the micro_* benches: calls `body()` in doubling
/// batches until 0.25 s of wall time have passed, then prints one row with
/// the calls made, ns per call and, when one call handles `items` > 1
/// items, ns per item. Host timings vary between runs and machines;
/// nothing gates them.
template <typename Body>
void TimeLoop(const std::string& name, Body&& body, std::uint64_t items = 1) {
  using Clock = std::chrono::steady_clock;
  constexpr double kMinSeconds = 0.25;
  std::uint64_t calls = 0;
  double seconds = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t batch = 1; seconds < kMinSeconds; batch *= 2) {
    for (std::uint64_t i = 0; i < batch; ++i) body();
    calls += batch;
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  const double ns = seconds * 1e9 / static_cast<double>(calls);
  char cell[128];
  std::snprintf(cell, sizeof cell, "%-40s %12llu calls %12.1f ns/call", name.c_str(),
                static_cast<unsigned long long>(calls), ns);
  std::cout << cell;
  if (items > 1) {
    std::snprintf(cell, sizeof cell, " %10.2f ns/item", ns / static_cast<double>(items));
    std::cout << cell;
  }
  std::cout << "\n";
}

/// One raw value of a Report row: a number (any arithmetic type, a bool
/// is 1 or 0) or a text label.
struct Value {
  template <typename T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  Value(T v) : num(static_cast<double>(v)) {}
  Value(std::string s) : text(std::move(s)), is_text(true) {}
  Value(const char* s) : Value(std::string(s)) {}

  double num = 0.0;
  std::string text;
  bool is_text = false;
  bool table_only = false;  ///< shown in the table, left out of the BENCH row
};

/// A table cell with no BENCH field, for a row that fills only some columns.
inline Value Cell(std::string text) {
  Value v(std::move(text));
  v.table_only = true;
  return v;
}

/// A BENCH value: a number with 12 significant digits, or a JSON string
/// for text and for "inf", "-inf" and "nan" (JSON has no such numbers).
inline std::string JsonValue(const Value& v) {
  if (!v.is_text && std::isfinite(v.num)) {
    std::ostringstream os;
    os.precision(12);
    os << v.num;
    return os.str();
  }
  std::string out = "\"";
  out += obs::EscapeJson(v.is_text ? v.text : v.num > 0 ? "inf" : v.num < 0 ? "-inf" : "nan");
  out += '"';
  return out;
}

/// Renders a number as a table cell: JsonValue, FormatRate,
/// FormatDuration, FormatCount, FormatBytes or one of these.
using CellFormat = std::function<std::string(double)>;
inline CellFormat Fixed(int decimals, std::string suffix = "") {
  return [=](double v) { return FormatDouble(v, decimals) + suffix; };
}
inline CellFormat Pct(int decimals) {
  return [=](double v) { return FormatDouble(100.0 * v, decimals) + "%"; };
}
inline CellFormat Flag(std::string yes, std::string no) {
  return [=](double v) { return v != 0.0 ? yes : no; };
}

/// One column of a Report: its table header ("" makes it a BENCH-only
/// field), its BENCH key ("" makes it a table-only cell) and its format.
/// The format renders a number's cell and makes its BENCH field the
/// number divided by `unit`: {"goodput", "goodput_mbs", FormatRate, 1e6}
/// shows B/s as a rate and prints MB/s. Text shows as itself in both.
struct Column {
  Column(std::string h, std::string k, CellFormat c = JsonValue, double u = 1.0)
      : header(std::move(h)), key(std::move(k)), cell(std::move(c)), unit(u) {}

  std::string header;
  std::string key;
  CellFormat cell;
  double unit;
};

/// The one bench output path. Each reported value is passed once, and the
/// Report shows it as a table cell and as a field of a machine-readable row
///
///   BENCH_<bench>.json {"key": value, ...}
///
/// with keys in column order, so the perf trajectory can be tracked across
/// PRs with `grep '^BENCH_' | cut -d' ' -f2-`. Three layouts:
/// - sweep: row() adds a table row and prints its BENCH row at once, and
///   print() prints the table;
/// - metric/value: metrics() prints a table of one "metric value" line per
///   headed column, then the BENCH row;
/// - BENCH-only: Emit() prints one row of key/value fields.
class Report {
 public:
  using Fields = std::vector<std::pair<std::string, Value>>;

  Report(std::string bench, std::vector<Column> columns, std::ostream& os = std::cout)
      : bench_(std::move(bench)), columns_(std::move(columns)), os_(os), table_(Headers()) {}

  void row(const std::vector<Value>& values) {
    auto [cells, fields] = Split(values);
    if (!cells.empty()) table_.row(std::move(cells));
    if (!fields.empty()) Emit(bench_, fields, os_);
  }

  void print() const { table_.print(os_); }

  void metrics(const std::vector<Value>& values) {
    auto [cells, fields] = Split(values);
    Table t({"metric", "value"});
    const std::vector<std::string> metric = Headers();
    for (std::size_t i = 0; i < cells.size(); ++i) t.row({metric[i], cells[i]});
    t.print(os_);
    if (!fields.empty()) Emit(bench_, fields, os_);
  }

  static void Emit(const std::string& bench, const Fields& fields, std::ostream& os = std::cout) {
    os << "BENCH_" << bench << ".json {";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      os << (i ? ", " : "") << '"' << fields[i].first << "\": " << JsonValue(fields[i].second);
    }
    os << "}\n";
  }

 private:
  std::vector<std::string> Headers() const {
    std::vector<std::string> out;
    for (const Column& c : columns_) {
      if (!c.header.empty()) out.push_back(c.header);
    }
    return out;
  }

  /// The row's table cells and BENCH fields, in column order.
  std::pair<std::vector<std::string>, Fields> Split(const std::vector<Value>& values) const {
    if (values.size() != columns_.size()) {
      throw std::invalid_argument("BENCH_" + bench_ + ": a row's values do not match its columns");
    }
    std::vector<std::string> cells;
    Fields fields;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Column& c = columns_[i];
      const Value& v = values[i];
      if (!c.header.empty()) cells.push_back(v.is_text ? v.text : c.cell(v.num));
      if (!c.key.empty() && !v.table_only) {
        fields.emplace_back(c.key, v.is_text ? v : Value(v.num / c.unit));
      }
    }
    return {std::move(cells), std::move(fields)};
  }

  std::string bench_;
  std::vector<Column> columns_;
  std::ostream& os_;
  Table table_;
};

/// Parses `--trace <path>` / `--trace=<path>` out of argv; returns the
/// path or "" when absent (tracing stays disabled, the default). Paths
/// ending in `.json` export the Chrome trace_event format; anything else
/// gets the canonical compact text format (the `trace_tool` input).
inline std::string TraceFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace" && i + 1 < argc) return argv[i + 1];
    if (a.rfind("--trace=", 0) == 0) return a.substr(8);
  }
  return "";
}

/// `--profile`: after the run, aggregate the trace into a profile and
/// print it as one byte-stable `BENCH_<bench>_profile.json` line (works
/// with or without `--trace`).
inline bool ProfileFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--profile") return true;
  }
  return false;
}

/// Parses `--out-dir <dir>` / `--out-dir=<dir>` for benches that write
/// render artifacts (PPMs). Defaults to the directory holding the
/// binary — under build/ for a standard configure — so running a bench
/// from the repo root no longer litters the source tree.
inline std::string OutDirFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out-dir" && i + 1 < argc) return argv[i + 1];
    if (a.rfind("--out-dir=", 0) == 0) return a.substr(10);
  }
  const std::string exe = argc > 0 ? argv[0] : "";
  const std::size_t slash = exe.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : exe.substr(0, slash);
}

/// Per-bench observability bundle: owns a Registry + Tracer and hands a
/// Context to instrumented code, or stays inert (ctx() == nullptr, the
/// zero-overhead path) when constructed with an empty path and profiling
/// off. On destruction writes the trace to the path (Chrome trace_event
/// JSON for `.json` paths, the canonical compact format otherwise) and,
/// when profiling, one BENCH_<bench>_profile.json summary line.
class BenchObs {
 public:
  explicit BenchObs(std::string path, bool profile = false,
                    std::string bench = "")
      : path_(std::move(path)), profile_(profile), bench_(std::move(bench)) {
    if (!path_.empty() || profile_) {
      state_ = std::make_unique<State>();
      state_->ctx.tracer = &state_->tracer;
      state_->ctx.registry = &state_->registry;
      state_->tracer.bind_drop_counter(
          &state_->registry.counter("obs.dropped_events"));
    }
  }

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

  ~BenchObs() {
    if (!state_) return;
    if (!path_.empty()) {
      std::ofstream out(path_);
      if (!out) {
        std::cerr << "trace: cannot open " << path_ << "\n";
      } else {
        const bool chrome =
            path_.size() >= 5 && path_.rfind(".json") == path_.size() - 5;
        if (chrome) {
          state_->tracer.write_chrome(out);
        } else {
          state_->tracer.write_compact(out);
        }
        std::cout << "trace: wrote " << state_->tracer.size() << " events to "
                  << path_
                  << (chrome ? " (open in chrome://tracing or ui.perfetto.dev)"
                             : " (compact; analyse with bench/trace_tool)")
                  << "\n";
      }
    }
    if (profile_) {
      const auto events = obs::CollectEvents(state_->tracer);
      const obs::Profile prof = obs::Profile::Build(events);
      std::cout << "BENCH_" << (bench_.empty() ? "bench" : bench_)
                << "_profile.json {";
      prof.write_summary_fields(std::cout);
      std::cout << "}\n";
    }
  }

  /// Null when tracing is disabled — pass straight through to the
  /// instrumented constructors.
  obs::Context* ctx() { return state_ ? &state_->ctx : nullptr; }
  obs::Tracer* tracer() { return state_ ? &state_->tracer : nullptr; }

 private:
  struct State {
    obs::Registry registry;
    obs::Tracer tracer;
    obs::Context ctx;
  };
  std::string path_;
  bool profile_ = false;
  std::string bench_;
  std::unique_ptr<State> state_;
};

/// Prints one line on stderr when the bench exits:
///
///   HOST_<bench> {"wall_ms": ..., "user_ms": ..., "sys_ms": ..., "peak_rss_mib": ...,
///                 "vcsw": ..., "ivcsw": ..., "admissions": ..., "parks": ...}
///
/// with the host wall time since start-up, the process's user and system
/// CPU time, its peak resident set, its voluntary and involuntary context
/// switches (a rank thread that waits for its turn switches voluntarily),
/// and the turns granted and parks made by every virtual-time scheduler
/// the bench destroyed (sim::VirtualScheduler::ProcessTotals), so parks
/// per admission and CPU per park can be read off one line. The peak
/// comes from VmHWM in /proc/self/status:
/// ru_maxrss carries the launcher's peak across exec.
/// Host cost varies between runs and machines, so it stays off stdout,
/// whose lines are deterministic. The release lane's "Bench pass" gates
/// only user_ms + sys_ms, loosely: more than 2x and more than 500 ms above
/// the bench's line in bench/baselines/host_cpu.txt fails.
class HostReport {
 public:
  HostReport() : start_(std::chrono::steady_clock::now()) {}
  HostReport(const HostReport&) = delete;
  HostReport& operator=(const HostReport&) = delete;

  ~HostReport() {
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
    };
    char peak[32] = "null";
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        std::snprintf(peak, sizeof peak, "%.1f", std::strtod(line.c_str() + 6, nullptr) / 1024.0);
        break;
      }
    }
    const sim::VirtualScheduler::Totals sched = sim::VirtualScheduler::ProcessTotals();
    std::fprintf(stderr,
                 "HOST_%s {\"wall_ms\": %.1f, \"user_ms\": %.1f, \"sys_ms\": %.1f, "
                 "\"peak_rss_mib\": %s, \"vcsw\": %ld, \"ivcsw\": %ld, "
                 "\"admissions\": %llu, \"parks\": %llu}\n",
                 program_invocation_short_name, wall_ms, ms(ru.ru_utime), ms(ru.ru_stime),
                 peak, ru.ru_nvcsw, ru.ru_nivcsw,
                 static_cast<unsigned long long>(sched.admissions),
                 static_cast<unsigned long long>(sched.parks));
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The one reporter every bench that includes this header gets.
inline const HostReport kHostReport;

}  // namespace pdsi::bench
