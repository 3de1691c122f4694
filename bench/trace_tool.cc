// trace_tool — offline analysis of compact traces.
//
// Reads the canonical compact trace format (what `<bench> --trace
// out.trace` writes, or `Tracer::write_compact`) and answers "where did
// the time go" without a GUI:
//
//   trace_tool <trace> --profile          span stats + per-track breakdown
//   trace_tool <trace> --critical-path    the chain that set the makespan
//   trace_tool <trace> --profile --json   the same, machine-readable
//   trace_tool <trace> --check <model>    audit the consist ops against a
//                                         claimed consistency model
//   trace_tool <trace> --monitor          replay the live monitoring sinks
//                                         (watermarks, EWMA anomalies,
//                                         rpc_req breakdowns) over the trace
//
// Output is byte-stable for a given input file (fixed formatting, sorted
// keys, deterministic tie-breaks), so profiles can be golden-tested the
// same way the traces themselves are. --check exits 0 on a clean trace
// and 1 on the first (deterministic) violation, so any committed trace
// can be audited standalone in CI.
//
// --monitor --check <model> also replays the ConsistencyMonitor beside
// the other sinks, folds its violation into the alarm list, and prints
// its verdict with its peak retained state: exit 0 clean, 1 violation.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <algorithm>

#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/consist/monitor.h"
#include "pdsi/obs/critical_path.h"
#include "pdsi/obs/monitor.h"
#include "pdsi/obs/profile.h"

using namespace pdsi;

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <trace-file> [--profile] [--critical-path] [--json]"
               " [--top N] [--bins N] [--check <model>] [--monitor]\n"
               "  <trace-file> is the compact format written by"
               " `<bench> --trace <path>` (non-.json path)\n"
               "  <model> is one of posix|session|commit|mpiio\n"
               "  with no mode flags, --profile and --critical-path both run\n"
               "  --monitor replays the streaming sinks; with --check it also"
               " replays the consistency monitor (exit 0 clean, 1 violation)\n";
  return 2;
}

int CheckTrace(const std::vector<obs::AnalysisEvent>& events,
               consist::ConsistencyModel model) {
  const consist::CheckResult res = consist::CheckConsistency(events, model);
  std::cout << "check: model=" << consist::ConsistencyModelName(model)
            << " writes=" << res.stats.writes << " reads=" << res.stats.reads
            << " content_checks=" << res.stats.content_checks
            << " composite_skips=" << res.stats.composite_skips
            << " conflict_pairs=" << res.stats.conflict_pairs << "\n";
  if (res.clean) {
    std::cout << "check: CLEAN\n";
    return 0;
  }
  std::cout << "check: VIOLATION " << consist::FormatViolation(res.first, events)
            << "\n";
  return 1;
}

/// Replays the streaming sinks over the parsed trace. With `check`, the
/// ConsistencyMonitor rides along and its verdict decides the exit code.
int MonitorTrace(const std::vector<obs::AnalysisEvent>& events, bool check,
                 consist::ConsistencyModel model) {
  obs::WatermarkSink water;
  obs::EwmaAnomalySink ewma;
  obs::RequestBreakdownSink breakdown;
  consist::ConsistencyMonitor mon(model);
  std::vector<obs::MonitorSink*> sinks{&water, &ewma, &breakdown};
  if (check) sinks.push_back(&mon);
  obs::ReplayEvents(events, sinks);

  std::cout << "monitor: events=" << events.size() << "\n";
  water.write_report(std::cout);
  if (!breakdown.requests().empty()) {
    std::cout << "monitor: requests=" << breakdown.requests().size()
              << " exact=" << (breakdown.exact() ? "y" : "n") << "\n";
    breakdown.write_table(std::cout);
  }
  std::vector<obs::Alarm> alarms;
  for (const auto& a : water.alarms()) alarms.push_back(a);
  for (const auto& a : ewma.alarms()) alarms.push_back(a);
  if (check && !mon.clean()) alarms.push_back(mon.alarm());
  std::stable_sort(alarms.begin(), alarms.end(),
                   [](const obs::Alarm& a, const obs::Alarm& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.key < b.key;
                   });
  for (const auto& a : alarms) std::cout << obs::FormatAlarm(a) << "\n";
  std::cout << "monitor: alarms=" << alarms.size() << "\n";
  if (!check) return 0;

  std::cout << "monitor-check: model=" << consist::ConsistencyModelName(model)
            << " peak_retained=" << mon.peak_retained() << "\n";
  if (mon.clean()) {
    std::cout << "monitor-check: CLEAN\n";
    return 0;
  }
  std::cout << "monitor-check: VIOLATION "
            << consist::FormatViolation(mon.first(), events) << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool profile = false, critical = false, json = false;
  bool check = false, monitor = false;
  consist::ConsistencyModel model = consist::ConsistencyModel::posix;
  std::size_t top_k = 10, bins = 24;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--profile") {
      profile = true;
    } else if (a == "--critical-path") {
      critical = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--check" && i + 1 < argc) {
      if (!consist::ParseConsistencyModel(argv[++i], &model)) return Usage(argv[0]);
      check = true;
    } else if (a == "--monitor") {
      monitor = true;
    } else if (a == "--top" && i + 1 < argc) {
      top_k = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (a == "--bins" && i + 1 < argc) {
      bins = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (!a.empty() && a[0] == '-') {
      return Usage(argv[0]);
    } else if (path.empty()) {
      path = a;
    } else {
      return Usage(argv[0]);
    }
  }
  if (path.empty()) return Usage(argv[0]);
  if (!profile && !critical && !check && !monitor) profile = critical = true;

  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_tool: cannot open " << path << "\n";
    return 1;
  }
  std::vector<obs::AnalysisEvent> events;
  std::string error;
  if (!obs::ParseCompactTrace(in, &events, &error)) {
    std::cerr << "trace_tool: " << path << ": " << error << "\n";
    return 1;
  }

  if (monitor) {
    const int rc = MonitorTrace(events, check, model);
    if (!profile && !critical) return rc;
    if (rc != 0) return rc;
    std::cout << "\n";
  } else if (check) {
    const int rc = CheckTrace(events, model);
    if (!profile && !critical) return rc;
    if (rc != 0) return rc;
    std::cout << "\n";
  }
  if (profile) {
    obs::ProfileOptions opts;
    opts.timeline_bins = bins;
    const obs::Profile p = obs::Profile::Build(events, opts);
    if (json) {
      p.write_json(std::cout);
    } else {
      p.write_text(std::cout);
    }
  }
  if (critical) {
    const obs::CriticalPathResult cp = obs::ExtractCriticalPath(events);
    if (json) {
      cp.write_json(std::cout, top_k);
    } else {
      if (profile) std::cout << "\n";
      cp.write_text(std::cout, top_k);
    }
  }
  return 0;
}
