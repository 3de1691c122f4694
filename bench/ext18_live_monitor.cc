// Extension — the live monitoring layer (pdsi::obs sinks + the
// incremental consistency monitor): what an online observer can tell an
// operator about a running petascale client, at zero cost to anyone not
// watching. Two scenarios:
//
//   1. incast_slo — one pipelined client fanning small appends over one
//      file per server (the Fig. 9 geometry) against a seeded RPC-drop
//      fault plan. A live subscription (SLO quantile alarms, EWMA
//      anomaly detection, OSS queue watermarks, per-request breakdowns)
//      is pumped at the fsync drain points; the rpc_req causal spans
//      attribute every request's latency to queue/stall/retry/wire/
//      service exactly (the five parts sum bit-for-bit to the total).
//      The run is repeated bare (no subscriber: the makespan must be
//      identical — zero observer effect) and with a capped tracer (the
//      stored trace drops events but the sinks must see the full
//      stream and report byte-identical results).
//
//   2. missing_fsync_audit — a commit-consistency run where the writer
//      forgets its fsync: the reader observes content no recorded
//      publish edge justifies, a deterministic unpublished_read. The
//      ConsistencyMonitor, subscribed to the live tracer, reports the
//      same first violation as CheckConsistency's replay of the
//      recorded trace (the "batch" pass), surfaced as a monitor alarm;
//      the control run with the fsync audits clean both ways. The buggy
//      trace is written out so CI can replay it through
//      `trace_tool <trace> --monitor --check commit`.
//
// Everything is virtual-time deterministic: alarms, breakdown tables
// and watermark reports are byte-stable run to run.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/consist/monitor.h"
#include "pdsi/fault/fault.h"
#include "pdsi/obs/monitor.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/sim/virtual_time.h"

using namespace pdsi;

namespace {

constexpr char kBench[] = "ext18_live_monitor";

struct Shape {
  int servers = 8;        ///< incast fan-out width (one file per server)
  int rounds = 48;        ///< appends per file
  int phases = 4;         ///< fsync drain points (subscriber pump sites)
  std::size_t cap = 256;  ///< stored-event cap for the capped-tracer run
};

// ---------------------------------------------------------------------------
// Scenario 1: pipelined incast under faults, with and without a watcher.

enum class Mode { bare, live, capped };

struct SloRun {
  double makespan_s = 0.0;
  std::uint64_t dropped = 0;   ///< events evicted from the stored trace
  std::uint64_t retries = 0;
  bool verify_ok = true;
  // Monitor outputs (empty/zero in bare mode).
  std::size_t requests = 0;
  bool exact_ok = true;
  std::size_t slo_alarms = 0;
  std::size_t anomaly_alarms = 0;
  std::size_t watermark_alarms = 0;
  double queue_s = 0.0, stall_s = 0.0, retry_s = 0.0, wire_s = 0.0;
  double service_s = 0.0, total_s = 0.0;
  std::string alarm_log;         ///< merged FormatAlarm lines
  std::string watermark_report;  ///< WatermarkSink::write_report
  std::string breakdown_table;   ///< RequestBreakdownSink::write_table
};

SloRun RunIncastSlo(Mode mode, const Shape& sh) {
  obs::Registry reg;
  obs::Tracer tr;
  if (mode == Mode::capped) tr.set_max_events(sh.cap);
  obs::Context ctx{&tr, &reg};
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PvfsLike(
      static_cast<std::uint32_t>(sh.servers));
  cfg.rpc_window = 8;
  cfg.rpc_batch = 4;
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.rpc_drop_prob = 0.10;
  fault::FaultInjector inj(plan, static_cast<std::uint32_t>(sh.servers), &ctx);
  cluster.set_fault(&inj);
  pfs::PfsClient client(cluster, 0);

  // The sinks: a p90 SLO on the request end-to-end latency (retry
  // penalties blow well past 2 ms), an EWMA band on the same key, a
  // queue-depth watermark on the OSS tracks, and the exact breakdowns.
  obs::SloSink slo({{"rpc:rpc_req", 2e-3, 0.9, 1.0, 8, 0.05}});
  obs::EwmaSpec espec;
  espec.keys = {"rpc:rpc_req"};
  espec.warmup = 16;
  espec.min_abs_s = 1e-3;
  espec.cooldown_s = 0.05;
  obs::EwmaAnomalySink ewma(espec);
  obs::WatermarkSpec wspec;
  wspec.cats = {"oss"};
  wspec.depth_limit = 6;
  wspec.cooldown_s = 0.01;
  obs::WatermarkSink wm(wspec);
  obs::RequestBreakdownSink breakdown;
  if (mode != Mode::bare) {
    tr.subscribe(&slo);
    tr.subscribe(&ewma);
    tr.subscribe(&wm);
    tr.subscribe(&breakdown);
  }

  SloRun res;
  const std::uint64_t rec = 4 * KiB;
  std::vector<pfs::FileHandle> fhs;
  for (int f = 0; f < sh.servers; ++f) {
    auto fh = client.create("/fan" + std::to_string(f));
    if (!fh.ok()) res.verify_ok = false;
    fhs.push_back(fh.ok() ? *fh : -1);
  }
  const int per_phase = sh.rounds / sh.phases;
  for (int ph = 0; ph < sh.phases; ++ph) {
    for (int k = ph * per_phase; k < (ph + 1) * per_phase; ++k) {
      for (int f = 0; f < sh.servers; ++f) {
        const std::uint64_t off = static_cast<std::uint64_t>(k) * rec;
        const std::uint32_t tag = static_cast<std::uint32_t>(700 + f);
        if (!client.write(fhs[static_cast<std::size_t>(f)], off,
                          MakePattern(tag, off, rec))
                 .ok()) {
          res.verify_ok = false;
        }
      }
    }
    for (int f = 0; f < sh.servers; ++f) {
      if (!client.fsync(fhs[static_cast<std::size_t>(f)]).ok()) {
        res.verify_ok = false;
      }
    }
    // The fsync drain is a safe pump point: every event at or before
    // `now` has been appended, so delivery preserves canonical order.
    if (mode != Mode::bare) tr.pump_subscribers(client.now());
  }
  Bytes out(rec);
  auto n = client.read(fhs[0], 0, out);
  if (!n.ok() || *n != rec || FindPatternMismatch(700, 0, out) != kNoMismatch) {
    res.verify_ok = false;
  }
  for (int f = 0; f < sh.servers; ++f) {
    if (!client.close(fhs[static_cast<std::size_t>(f)]).ok()) {
      res.verify_ok = false;
    }
  }
  res.makespan_s = client.now();
  if (mode != Mode::bare) tr.flush_subscribers(client.now());

  res.dropped = tr.dropped_events();
  res.retries = inj.retries();
  if (mode == Mode::bare) return res;

  res.requests = breakdown.requests().size();
  res.exact_ok = breakdown.exact();
  res.slo_alarms = slo.alarms().size();
  res.anomaly_alarms = ewma.alarms().size();
  res.watermark_alarms = wm.alarms().size();
  for (const auto& b : breakdown.requests()) {
    res.queue_s += b.queue_s;
    res.stall_s += b.stall_s;
    res.retry_s += b.retry_s;
    res.wire_s += b.wire_s;
    res.service_s += b.service_s;
    res.total_s += b.total_s;
  }
  std::vector<obs::Alarm> alarms;
  for (const auto& a : slo.alarms()) alarms.push_back(a);
  for (const auto& a : ewma.alarms()) alarms.push_back(a);
  for (const auto& a : wm.alarms()) alarms.push_back(a);
  std::stable_sort(alarms.begin(), alarms.end(),
                   [](const obs::Alarm& a, const obs::Alarm& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.key < b.key;
                   });
  std::ostringstream alog;
  for (const auto& a : alarms) alog << obs::FormatAlarm(a) << "\n";
  res.alarm_log = alog.str();
  std::ostringstream wrep;
  wm.write_report(wrep);
  res.watermark_report = wrep.str();
  std::ostringstream btab;
  breakdown.write_table(btab, 8);
  res.breakdown_table = btab.str();
  return res;
}

bool ScenarioIncastSlo(const Shape& sh) {
  PrintBanner(std::cout, "scenario: incast_slo (pipelined client + faults)");
  const SloRun live = RunIncastSlo(Mode::live, sh);
  const SloRun bare = RunIncastSlo(Mode::bare, sh);
  const SloRun capped = RunIncastSlo(Mode::capped, sh);

  std::cout << "slowest requests (queue/stall/retry/wire/service sum "
               "exactly to total):\n"
            << live.breakdown_table;
  std::cout << live.watermark_report;
  std::cout << live.alarm_log;
  std::cout << "alarms: slo=" << live.slo_alarms
            << " anomaly=" << live.anomaly_alarms
            << " watermark=" << live.watermark_alarms << "\n";

  const bool observer_zero = bare.makespan_s == live.makespan_s;
  const bool cap_identical = capped.alarm_log == live.alarm_log &&
                             capped.watermark_report == live.watermark_report &&
                             capped.breakdown_table == live.breakdown_table &&
                             capped.requests == live.requests;
  const bool cap_bites = capped.dropped > 0 && live.dropped == 0;
  std::cout << "observer effect: bare makespan "
            << (observer_zero ? "identical" : "DIVERGED") << " ("
            << FormatDuration(bare.makespan_s) << ")\n";
  std::cout << "capped tracer: dropped " << capped.dropped
            << " stored events, monitor results "
            << (cap_identical ? "identical" : "DIVERGED") << "\n";

  bench::Report::Emit(kBench,
                      {{"scenario", "incast_slo"},
                       {"makespan_s", live.makespan_s},
                       {"requests", live.requests},
                       {"retries", live.retries},
                       {"slo_alarms", live.slo_alarms},
                       {"anomaly_alarms", live.anomaly_alarms},
                       {"watermark_alarms", live.watermark_alarms},
                       {"queue_s", live.queue_s},
                       {"stall_s", live.stall_s},
                       {"retry_s", live.retry_s},
                       {"wire_s", live.wire_s},
                       {"service_s", live.service_s},
                       {"req_total_s", live.total_s},
                       {"exact_ok", live.exact_ok},
                       {"observer_zero", observer_zero},
                       {"cap_identical", cap_identical && cap_bites},
                       {"capped_dropped", capped.dropped},
                       {"verify_ok", live.verify_ok && bare.verify_ok && capped.verify_ok}});

  return live.verify_ok && bare.verify_ok && capped.verify_ok &&
         live.exact_ok && observer_zero && cap_identical && cap_bites &&
         live.slo_alarms > 0 && live.requests > 0;
}

// ---------------------------------------------------------------------------
// Scenario 2: the missing fsync, caught online.

struct AuditRun {
  bool io_ok = true;
  bool batch_clean = true;
  bool live_clean = true;
  bool agree = false;  ///< live monitor == replayed trace, op pair and all
  std::size_t events = 0;
  std::size_t peak_retained = 0;
  std::string batch_verdict;   ///< formatted first violation (when any)
  std::string online_verdict;
  std::string alarm;           ///< the monitor alarm line (when violating)
  std::string trace;           ///< compact trace, for the CI replay
};

/// One writer, one reader, commit-model visibility, synchronous client
/// with consist recording. `with_fsync` is the one-line difference
/// between the correct program and the bug the monitor exists to catch:
/// commit mode publishes at fsync, and the buggy writer closes without
/// one, so the reader observes content no recorded publish edge
/// justifies — a deterministic unpublished_read.
AuditRun RunCommitAudit(bool with_fsync) {
  obs::Registry reg;
  obs::Tracer tr;
  obs::Context ctx{&tr, &reg};
  sim::VirtualScheduler sched(2);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.consistency = consist::ConsistencyModel::commit;
  cfg.record_consist_ops = true;  // requires the synchronous client
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  sim::VirtualBarrier barrier(sched);

  // The live monitor watches the run as it happens.
  consist::ConsistencyMonitor live(consist::ConsistencyModel::commit);
  tr.subscribe(&live);

  AuditRun res;
  const std::uint64_t rec = 16 * KiB;
  // Actor 0 writes; actor 1 reads once the barrier says the writer is done.
  sched.run([&](std::size_t actor) {
    if (actor == 0) {
      pfs::PfsClient c(cluster, 0);
      auto fh = c.create("/audit");
      if (!fh.ok()) res.io_ok = false;
      if (!c.write(*fh, 0, MakePattern(900, 0, rec)).ok()) res.io_ok = false;
      if (with_fsync && !c.fsync(*fh).ok()) res.io_ok = false;
      if (!c.close(*fh).ok()) res.io_ok = false;
      barrier.arrive(0);
      return;
    }
    barrier.arrive(1);
    pfs::PfsClient c(cluster, 1);
    auto fh = c.open("/audit");
    if (!fh.ok()) res.io_ok = false;
    Bytes out(rec);
    auto n = c.read(*fh, 0, out);
    if (!n.ok() || *n != rec) res.io_ok = false;
    if (!c.close(*fh).ok()) res.io_ok = false;
  });
  tr.flush_subscribers(0.0);

  const auto events = obs::CollectEvents(tr);
  const auto batch =
      consist::CheckConsistency(events, consist::ConsistencyModel::commit);
  res.events = events.size();
  res.batch_clean = batch.clean;
  res.live_clean = live.clean();
  res.agree = batch.clean == live.clean() &&
              (batch.clean || (batch.first.kind == live.first().kind &&
                               batch.first.op_a == live.first().op_a &&
                               batch.first.op_b == live.first().op_b &&
                               batch.first.detail == live.first().detail));
  res.peak_retained = live.peak_retained();
  if (!batch.clean) {
    res.batch_verdict = consist::FormatViolation(batch.first, events);
  }
  if (!live.clean()) {
    res.online_verdict = consist::FormatViolation(live.first(), events);
    res.alarm = obs::FormatAlarm(live.alarm());
  }
  std::ostringstream os;
  tr.write_compact(os);
  res.trace = os.str();
  return res;
}

bool ScenarioMissingFsyncAudit(const std::string& trace_base) {
  PrintBanner(std::cout, "scenario: missing_fsync_audit (commit model)");
  const AuditRun buggy = RunCommitAudit(/*with_fsync=*/false);
  const AuditRun fixed = RunCommitAudit(/*with_fsync=*/true);

  std::cout << "with fsync:    batch "
            << (fixed.batch_clean ? "CLEAN" : "VIOLATION " + fixed.batch_verdict)
            << ", online " << (fixed.live_clean ? "CLEAN" : "VIOLATION")
            << "\n";
  std::cout << "missing fsync: batch "
            << (buggy.batch_clean ? "CLEAN" : "VIOLATION " + buggy.batch_verdict)
            << "\n";
  std::cout << "missing fsync: online "
            << (buggy.live_clean ? "CLEAN" : "VIOLATION " + buggy.online_verdict)
            << "\n";
  if (!buggy.alarm.empty()) std::cout << buggy.alarm << "\n";
  std::cout << "online/batch agreement: "
            << (buggy.agree && fixed.agree ? "AGREE" : "MISMATCH")
            << " (peak retained " << buggy.peak_retained << " ops over "
            << buggy.events << " events)\n";

  if (!trace_base.empty()) {
    const std::string path = trace_base + ".audit.trace";
    std::ofstream out(path);
    if (out) {
      out << buggy.trace;
      std::cout << "trace: wrote the missing-fsync run to " << path
                << " (replay with `trace_tool " << path
                << " --monitor --check commit`)\n";
    } else {
      std::cerr << "trace: cannot open " << path << "\n";
    }
  }

  bench::Report::Emit(kBench, {{"scenario", "missing_fsync_audit"},
                               {"events", buggy.events},
                               {"buggy_clean", buggy.batch_clean},
                               {"fixed_clean", fixed.batch_clean},
                               {"online_agree", buggy.agree && fixed.agree},
                               {"peak_retained", buggy.peak_retained},
                               {"verify_ok", buggy.io_ok && fixed.io_ok}});

  return buggy.io_ok && fixed.io_ok && buggy.agree && fixed.agree &&
         !buggy.batch_clean && !buggy.live_clean && fixed.batch_clean &&
         fixed.live_clean;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header(
      "Live monitoring: SLO/anomaly alarms, exact request breakdowns, and "
      "the online consistency monitor (pdsi::obs + pdsi::consist)",
      "an operator can watch a petascale client in flight — per-request "
      "causal latency attribution, deterministic alarms, and streaming "
      "consistency auditing — at zero cost to runs nobody watches");
  const std::string trace_base = bench::TraceFlag(argc, argv);

  const Shape shape;

  bool ok = true;
  ok = ScenarioIncastSlo(shape) && ok;
  ok = ScenarioMissingFsyncAudit(trace_base) && ok;

  bench::Note(
      "shape check: retry penalties dominate the slowest requests (the "
      "SLO and EWMA alarms name the same culprits the breakdown table "
      "shows as retry-heavy); the missing-fsync run flags a deterministic "
      "unpublished read — online and batch passes naming the identical op "
      "pair — while the control run with the fsync audits clean.");
  if (!ok) {
    std::cerr << "ext18_live_monitor: FAILED (a monitor invariant did not "
                 "hold)\n";
    return 1;
  }
  return 0;
}
