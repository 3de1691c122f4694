// perfbench: the two-clock benchmark program.
//
//   perfbench --workload <n1_checkpoint|restart_read|create_storm>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// After one untraced warm-up round, runs rounds of one seeded workload
// until --seconds have passed (at least kMinRounds). Each round builds a
// fresh simulated system (timed as set-up) and runs the measured phase. --trace 0 reports the end-to-end
// metrics from untraced rounds. --trace 1 alternates untraced and traced
// rounds and reports the per-layer metrics; the untraced rounds give the
// tracing overhead and the getrusage-based sim metrics.
//
// Every round's virtual metrics must be bit-identical (same seed, traced
// or not) and every output check must pass; otherwise "correct" is false
// and the exit code is 1. The last stdout line is the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;    // per mode
constexpr int kMaxRounds = 200;  // runaway guard

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer").
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_cpu_us_per_op", "us"},
    {"peak_rss_mib", "MiB"},
    {"virt_ops_per_s", "1/s"},
};

constexpr Metric kPerLayer[] = {
    // Wall-clock throughput of the untraced rounds. With 64 rank threads
    // handing the scheduler to each other it tracks how fast the kernel
    // runs woken threads, which drifts with other load on the machine far
    // more than CPU time does, so it carries no bound.
    {"host_ops_per_s", "1/s"},
    {"sim.ctx_switches_per_op", "count/op"},
    {"sim.sys_cpu_share", "ratio"},
    {"sim.admit_wait_us.p50", "us"},
    {"sim.admit_wait_us.p99", "us"},
    {"pfs.write.host_us.p50", "us"},
    {"pfs.write.host_us.p99", "us"},
    {"pfs.write.virt_ms.p50", "ms"},
    {"pfs.write.virt_ms.p99", "ms"},
    {"pfs.lock_conflicts", "count"},
    {"pfs.lock_wait_s.sum", "s"},
    {"pfs.create.host_us.p50", "us"},
    {"pfs.create.host_us.p99", "us"},
    {"pfs.create.virt_ms.p50", "ms"},
    {"pfs.create.virt_ms.p99", "ms"},
    {"pfs.stale_retries_per_create", "ratio"},
    {"mds.ops", "count"},
    {"mds.splits", "count"},
    {"mds.shard_ops_max_over_mean", "ratio"},
    {"mds.op_latency_s.p99", "s"},
    {"oss.ops", "count"},
    {"oss.bytes_written", "B"},
    {"oss.bytes_read", "B"},
    {"oss.seek_s", "s"},
    {"oss.transfer_s", "s"},
    {"oss.disk_util", "ratio"},
    {"rpc.submitted", "count"},
    {"rpc.messages", "count"},
    {"rpc.failures", "count"},
    {"plfs.write.host_us.p50", "us"},
    {"plfs.write.host_us.p99", "us"},
    {"plfs.write.virt_ms.p50", "ms"},
    {"plfs.write.virt_ms.p99", "ms"},
    {"plfs.self_host_us_per_op", "us"},
    {"plfs.backend_calls_per_op", "count/op"},
    {"plfs.backend_bytes_per_user_byte", "ratio"},
    {"plfs.open.host_ms", "ms"},
    {"plfs.open.virt_ms", "ms"},
    {"plfs.index_entries", "count"},
    {"plfs.index_bytes_read", "B"},
    {"plfs.index_cache_hit_ratio", "ratio"},
    {"plfs.read.host_us.p50", "us"},
    {"plfs.read.host_us.p99", "us"},
    {"plfs.read.virt_ms.p50", "ms"},
    {"plfs.read.virt_ms.p99", "ms"},
    {"plfs.read_segments_per_read", "count/op"},
    {"trace.overhead_ratio", "ratio"},
    // Workload-level virtual metrics that exist on only some workloads
    // (0 where a workload has no such path); bit-identical to the
    // untraced rounds, which the run checks.
    {"fail_ratio", "ratio"},
    {"virt_bw_mbs", "MB/s"},
    {"virt_direct_bw_mbs", "MB/s"},
    {"stored_bytes_per_user_byte", "ratio"},
    {"virt_open_ms", "ms"},
    {"virt_op_p50_ms", "ms"},
    {"virt_op_p99_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

struct Round {
  bool traced = false;
  double setup_s = 0.0;       ///< CPU seconds (user + sys, all threads)
  double setup_wall_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
  RoundResult result;
};

double CpuSeconds(const Usage& a, const Usage& b) {
  return (b.user_s - a.user_s) + (b.sys_s - a.sys_s);
}

Round RunRound(const Args& args, bool traced) {
  Round round;
  round.traced = traced;
  auto w = MakeWorkload(args.workload, args.seed, traced);
  const Usage u0 = ReadUsage();
  const double t0 = HostNow();
  w->setup();
  const double t1 = HostNow();
  const Usage u1 = ReadUsage();
  w->run();
  const Usage u2 = ReadUsage();
  const double t2 = HostNow();
  // Set-up is reported in CPU seconds: its wall time is dominated by
  // starting 64-128 rank threads, which swings with other load on the
  // machine far more than the CPU it takes.
  round.setup_s = CpuSeconds(u0, u1);
  round.setup_wall_s = t1 - t0;
  round.wall_s = t2 - t1;
  round.cpu_s = CpuSeconds(u1, u2);
  round.sys_s = u2.sys_s - u1.sys_s;
  round.ctx_switches = static_cast<double>(u2.ctx_switches - u1.ctx_switches);
  round.result = w->collect();
  return round;
}

/// Median over the rounds of one mode.
template <class Fn>
double MedianOver(const std::vector<Round>& rounds, bool traced, Fn&& fn) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    if (r.traced == traced) v.push_back(fn(r));
  }
  return Median(v);
}

double PerOp(double x, const Round& r) {
  return r.result.ops > 0 ? x / static_cast<double>(r.result.ops) : 0.0;
}

double OpsPerSecond(const Round& r) { return static_cast<double>(r.result.ops) / r.wall_s; }

struct Value {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Per-layer values: per-call samples pooled over the traced rounds
/// (".p50"/".p99" of the pool), per-round values as their median across
/// traced rounds, virtual metrics from the (identical) rounds.
std::map<std::string, Value> PerLayer(const std::vector<Round>& rounds) {
  std::map<std::string, std::vector<double>> pooled, per_round;
  std::size_t traced = 0;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    ++traced;
    for (const auto& [k, v] : r.result.samples) {
      pooled[k].insert(pooled[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : r.result.values) per_round[k].push_back(v);
  }
  std::map<std::string, Value> out;
  for (const auto& [k, v] : pooled) {
    out[k + ".p50"] = {Quantile(v, 0.50), v.size()};
    out[k + ".p99"] = {Quantile(v, 0.99), v.size()};
  }
  for (const auto& [k, v] : per_round) out[k] = {Median(v), v.size()};
  const RoundResult& first = rounds.front().result;
  for (const auto& [k, v] : first.virt) out[k] = {v, rounds.size()};
  for (const char* k : {"virt_op_p50_ms", "virt_op_p99_ms"}) {
    if (first.virt.count(k)) out[k].samples = first.virt_op_samples;
  }

  const std::size_t untraced = rounds.size() - traced;
  out["host_ops_per_s"] = {MedianOver(rounds, false, OpsPerSecond), untraced};
  out["sim.ctx_switches_per_op"] = {
      MedianOver(rounds, false, [](const Round& r) { return PerOp(r.ctx_switches, r); }),
      untraced};
  out["sim.sys_cpu_share"] = {
      MedianOver(rounds, false,
                 [](const Round& r) { return r.cpu_s > 0 ? r.sys_s / r.cpu_s : 0.0; }),
      untraced};
  out["trace.overhead_ratio"] = {
      MedianOver(rounds, true, [](const Round& r) { return r.wall_s; }) /
          MedianOver(rounds, false, [](const Round& r) { return r.wall_s; }),
      rounds.size()};
  return out;
}

std::map<std::string, Value> EndToEnd(const std::vector<Round>& rounds,
                                      double peak_rss_mib) {
  const std::size_t n = rounds.size();
  std::map<std::string, Value> out;
  out["setup_s"] = {MedianOver(rounds, false, [](const Round& r) { return r.setup_s; }), n};
  out["host_cpu_us_per_op"] = {
      MedianOver(rounds, false, [](const Round& r) { return PerOp(r.cpu_s, r) * 1e6; }), n};
  out["peak_rss_mib"] = {peak_rss_mib, 1};
  out["virt_ops_per_s"] = {rounds.front().result.virt.at("virt_ops_per_s"), n};
  return out;
}

/// Every round must report the same virtual metrics, bit for bit.
bool VirtualRepeats(const std::vector<Round>& rounds) {
  const auto& ref = rounds.front().result.virt;
  bool ok = true;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    const auto& v = rounds[i].result.virt;
    for (const auto& [k, x] : ref) {
      const auto it = v.find(k);
      if (it == v.end() || std::memcmp(&it->second, &x, sizeof x) != 0) {
        std::fprintf(stderr,
                     "virtual metric %s differs: round 0 %.17g, round %zu (%s) %.17g\n",
                     k.c_str(), x, i, rounds[i].traced ? "traced" : "untraced",
                     it == v.end() ? NAN : it->second);
        ok = false;
      }
    }
  }
  return ok;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  if (!MakeWorkload(args.workload, args.seed, false)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  // One untraced warm-up round (allocator and page-cache state settle;
  // its virtual metrics are still checked) before the timed rounds.
  std::vector<Round> rounds{RunRound(args, false)};
  const double start = HostNow();
  int traced = 0, untraced = 0;
  while (static_cast<int>(rounds.size()) <= kMaxRounds) {
    const bool enough = untraced >= kMinRounds && (!args.trace || traced >= kMinRounds);
    if (enough && HostNow() - start >= args.seconds) break;
    const bool next_traced = args.trace && traced < untraced;
    rounds.push_back(RunRound(args, next_traced));
    ++(next_traced ? traced : untraced);
    // Only the first traced round's spans are written out.
    if (traced > 1 && next_traced) rounds.back().result.spans = {};
    const Round& r = rounds.back();
    std::printf("round %zu traced=%d setup_s=%.6f setup_wall_s=%.6f wall_s=%.6f cpu_s=%.6f sys_s=%.6f ops=%llu\n",
                rounds.size() - 1, r.traced ? 1 : 0, r.setup_s, r.setup_wall_s, r.wall_s, r.cpu_s, r.sys_s,
                static_cast<unsigned long long>(r.result.ops));
  }
  const double peak_rss_mib = ReadUsage().max_rss_mib;

  bool correct = VirtualRepeats(rounds);
  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.result.ops;
    failed += r.result.failed;
    for (const std::string& e : r.result.errors) {
      std::fprintf(stderr, "output check failed: %s\n", e.c_str());
      correct = false;
    }
  }
  rounds.erase(rounds.begin());  // the warm-up round counts only for checks

  std::printf("perfbench workload=%s seed=%llu rounds=%zu traced=%d seconds=%.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              rounds.size(), traced, HostNow() - start);
  for (const auto& [k, v] : rounds.front().result.virt) {
    std::printf("virt %s %s\n", k.c_str(), Num(v).c_str());
  }

  std::map<std::string, Value> values;
  std::vector<Metric> metrics;
  if (args.trace) {
    values = PerLayer(rounds);
    metrics.assign(std::begin(kPerLayer), std::end(kPerLayer));
    std::printf("per-layer report (%d traced rounds, %d untraced):\n", traced, untraced);
  } else {
    values = EndToEnd(rounds, peak_rss_mib);
    metrics.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    std::printf("end-to-end report (%d untraced rounds):\n", untraced);
  }
  for (const Metric& m : metrics) {
    const Value v = values.count(m.name) ? values.at(m.name) : Value{};
    std::printf("  %-34s %16.6g %-9s n=%zu\n", m.name, v.value, m.unit, v.samples);
  }

  if (args.trace && !args.spans.empty()) {
    const Round& first_traced = rounds[1];  // rounds alternate, untraced first
    std::ofstream os(args.spans);
    WriteSpans(os, first_traced.result.spans);
    if (!os) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
      return 1;
    }
    std::printf("spans: %s (%zu spans, first traced round)\n", args.spans.c_str(),
                first_traced.result.spans.size());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Value v = values.count(metrics[i].name) ? values.at(metrics[i].name) : Value{};
    json += std::string(i ? ", " : "") + "\"" + metrics[i].name + "\": {\"value\": " +
            Num(v.value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
