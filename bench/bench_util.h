// Shared helpers for the per-figure benchmark harnesses: consistent
// banners and paper-vs-measured reporting so bench output can be pasted
// straight into EXPERIMENTS.md, and a HOST_ line of the run's host cost
// on stderr at exit.
#pragma once

#include <errno.h>  // program_invocation_short_name
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "pdsi/common/table.h"
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

/// Machine-readable mirror of the table output: each emit() prints one
/// line of the form
///
///   BENCH_<bench>.json {"key": value, ...}
///
/// so the perf trajectory can be tracked across PRs with
/// `grep '^BENCH_' | cut -d' ' -f2-`. Keys insert in call order; values
/// are JSON numbers or strings (non-finite numbers are emitted as
/// strings, since JSON has no inf/nan).
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  JsonReport& num(const std::string& key, double v) {
    if (!std::isfinite(v)) return str(key, v > 0 ? "inf" : (v < 0 ? "-inf" : "nan"));
    std::ostringstream os;
    os.precision(12);
    os << v;
    add(key, os.str());
    return *this;
  }

  JsonReport& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    quoted += obs::EscapeJson(v);
    quoted += '"';
    add(key, quoted);
    return *this;
  }

  /// Prints the line and clears the fields for the next row.
  void emit(std::ostream& os = std::cout) {
    os << "BENCH_" << bench_ << ".json {" << fields_ << "}\n";
    fields_.clear();
  }

 private:
  void add(const std::string& key, const std::string& json_value) {
    if (!fields_.empty()) fields_ += ", ";
    fields_ += "\"" + key + "\": " + json_value;
  }

  std::string bench_;
  std::string fields_;
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
  obs::Registry* registry() { return state_ ? &state_->registry : nullptr; }

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
