// Tests for the online monitoring layer: the consistency checker's
// first-violation parity with the brute-force reference in
// consist_testing.h (clean traces, every mutation injector), live
// subscription vs replay, the bounded retained-state guarantee, the
// cap-vs-subscriber regression (a capped tracer still feeds sinks the
// full stream), and the rpc_req causal breakdown identity with its
// zero-observer-effect gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "consist_testing.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/consist/checker.h"
#include "pdsi/consist/model.h"
#include "pdsi/consist/monitor.h"
#include "pdsi/consist/mutate.h"
#include "pdsi/fault/fault.h"
#include "pdsi/obs/monitor.h"
#include "pdsi/obs/obs.h"
#include "pdsi/obs/profile.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::consist {
namespace {

/// Replays `events` through a fresh monitor and returns it.
ConsistencyMonitor Monitor(const std::vector<obs::AnalysisEvent>& events,
                           ConsistencyModel model) {
  ConsistencyMonitor mon(model);
  obs::ReplayEvents(events, {&mon});
  return mon;
}

/// The checker and the reference must agree: same cleanliness and, on a
/// violation, the same kind, op pair and detail.
void ExpectParity(const std::vector<obs::AnalysisEvent>& events,
                  ConsistencyModel model, const char* label,
                  std::uint64_t seed) {
  const CheckResult ref = ReferenceCheck(events, model);
  const CheckResult got = CheckConsistency(events, model);
  ASSERT_EQ(got.clean, ref.clean)
      << label << " seed=" << seed
      << " reference=" << (ref.clean ? "clean" : FormatViolation(ref.first, events))
      << " checker=" << (got.clean ? "clean" : FormatViolation(got.first, events));
  if (!ref.clean) {
    EXPECT_EQ(got.first.kind, ref.first.kind)
        << label << " seed=" << seed << ": "
        << FormatViolation(got.first, events) << " vs reference "
        << FormatViolation(ref.first, events);
    EXPECT_EQ(got.first.op_a, ref.first.op_a)
        << label << " seed=" << seed << ": "
        << FormatViolation(got.first, events);
    EXPECT_EQ(got.first.op_b, ref.first.op_b)
        << label << " seed=" << seed << ": "
        << FormatViolation(got.first, events);
    EXPECT_EQ(got.first.detail, ref.first.detail)
        << label << " seed=" << seed;
  }
}

TEST(ConsistMonitor, CleanTracesAgreeWithBatchUnderEveryModel) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    WorkloadSpec spec;
    spec.model = m;
    spec.ranks = 4;
    spec.rounds = 3;
    auto events = RecordWorkload(spec);
    const CheckResult ref = ReferenceCheck(events, m);
    const CheckResult got = CheckConsistency(events, m);
    EXPECT_TRUE(ref.clean) << ConsistencyModelName(m);
    EXPECT_TRUE(got.clean)
        << ConsistencyModelName(m) << ": " << FormatViolation(got.first, events);
    // On clean traces the per-read classification counters agree too.
    EXPECT_EQ(got.stats.writes, ref.stats.writes) << ConsistencyModelName(m);
    EXPECT_EQ(got.stats.reads, ref.stats.reads) << ConsistencyModelName(m);
    EXPECT_EQ(got.stats.content_checks, ref.stats.content_checks)
        << ConsistencyModelName(m);
    EXPECT_EQ(got.stats.composite_skips, ref.stats.composite_skips)
        << ConsistencyModelName(m);
  }
}

TEST(ConsistMonitor, RandomizedCleanSchedulesAgree) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    for (std::uint64_t seed : {11u, 29u, 63u}) {
      WorkloadSpec spec;
      spec.model = m;
      spec.ranks = 4;
      spec.rounds = 4;
      spec.randomized = true;
      spec.salt = seed;
      ExpectParity(RecordWorkload(spec), m, ConsistencyModelName(m).data(),
                   seed);
    }
  }
}

TEST(ConsistMonitor, ReorderWritePastCloseParity) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::session;
  spec.ranks = 4;
  spec.rounds = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto events = RecordWorkload(spec);
    auto p = ReorderWritePastClose(&events, seed);
    ASSERT_TRUE(p.applied) << seed;
    ExpectParity(events, ConsistencyModel::session, "reorder", seed);
  }
}

TEST(ConsistMonitor, DropSyncEdgeParityUnderCommitAndMpiio) {
  for (ConsistencyModel m : {ConsistencyModel::commit, ConsistencyModel::mpiio}) {
    WorkloadSpec spec;
    spec.model = m;
    spec.ranks = 4;
    spec.rounds = 3;
    spec.split_roles = m == ConsistencyModel::mpiio;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      auto events = RecordWorkload(spec);
      auto p = DropSyncEdge(&events, seed);
      ASSERT_TRUE(p.applied) << ConsistencyModelName(m) << " seed=" << seed;
      ExpectParity(events, m, "drop-sync", seed);
    }
  }
}

TEST(ConsistMonitor, SpliceStaleReadParityUnderEveryModel) {
  for (ConsistencyModel m : kAllConsistencyModels) {
    WorkloadSpec spec;
    spec.model = m;
    spec.ranks = 4;
    spec.rounds = 3;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      auto events = RecordWorkload(spec);
      auto p = SpliceStaleRead(&events, m, seed);
      ASSERT_TRUE(p.applied) << ConsistencyModelName(m) << " seed=" << seed;
      ExpectParity(events, m, ConsistencyModelName(m).data(), seed);
    }
  }
}

TEST(ConsistMonitor, OverlapConflictingWritesParity) {
  WorkloadSpec spec;
  spec.contended = true;
  spec.ranks = 3;
  spec.rounds = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto events = RecordWorkload(spec);
    auto p = OverlapConflictingWrites(&events, seed);
    ASSERT_TRUE(p.applied) << seed;
    ExpectParity(events, ConsistencyModel::posix, "overlap", seed);
  }
}

/// A random consist trace on one file and one byte interval: three
/// clients, each a sequence of ten actions (write, read, or an open,
/// close, sync or pub edge) with random durations and gaps. Every write
/// has its own fingerprint; a read returns the hole, garbage, or one of
/// the three newest writes that started before it.
std::vector<obs::AnalysisEvent> SyntheticTrace(std::uint64_t seed) {
  static const char* const kNames[] = {"write", "read",  "open",
                                       "close", "sync", "pub"};
  constexpr double kMs = 1e-3;
  std::mt19937_64 rng(seed);
  std::vector<obs::AnalysisEvent> events;
  for (int c = 0; c < 3; ++c) {
    double t = static_cast<double>(rng() % 5) * kMs;
    for (int k = 0; k < 10; ++k) {
      obs::AnalysisEvent e;
      e.ts = t;
      e.track = "rank" + std::to_string(c);
      e.cat = "consist";
      e.name = kNames[rng() % 6];
      e.args = {{"file", 1.0}};
      if (e.name == "write" || e.name == "read") {
        e.dur = static_cast<double>(1 + rng() % 4) * kMs;
        e.args.insert(e.args.end(), {{"off", 0.0},
                                     {"len", static_cast<double>(kLen)},
                                     {"fp", 0.0}});
        t += e.dur;
      }
      events.push_back(std::move(e));
      t += static_cast<double>(rng() % 4) * kMs;
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::AnalysisEvent& a, const obs::AnalysisEvent& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.track < b.track;
                   });
  std::vector<double> written;  // write fingerprints in event order
  for (obs::AnalysisEvent& e : events) {
    if (!e.is_span()) continue;
    double& fp = e.args.back().second;
    if (e.name == "write") {
      fp = 1000.0 + static_cast<double>(written.size());
      written.push_back(fp);
      continue;
    }
    const std::uint64_t pick = rng() % 5;
    if (pick == 0 || written.empty()) {
      fp = static_cast<double>(ZeroFingerprint(kLen));
    } else if (pick == 1) {
      fp = 7.0;
    } else {
      fp = written[written.size() - 1 - rng() % std::min<std::size_t>(written.size(), 3)];
    }
  }
  return events;
}

// Synthetic traces reach schedules the recorded workloads never do:
// clients that read without reopening or syncing, writers reading back
// their own writes, reads racing writes, reads of the hole or of
// garbage. One interval means no read mixes intervals, and a read only
// returns a write that started before it, so the streaming verdict is
// the whole-trace one.
TEST(ConsistMonitor, SyntheticTracesAgreeWithReference) {
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const auto events = SyntheticTrace(seed);
    for (ConsistencyModel m : kAllConsistencyModels) {
      ExpectParity(events, m, ConsistencyModelName(m).data(), seed);
    }
  }
}

TEST(ConsistMonitor, ViolationSurfacesAsDeterministicAlarm) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::session;
  auto events = RecordWorkload(spec);
  auto p = ReorderWritePastClose(&events, 0);
  ASSERT_TRUE(p.applied);
  const ConsistencyMonitor mon = Monitor(events, ConsistencyModel::session);
  ASSERT_FALSE(mon.clean());
  const obs::Alarm a = mon.alarm();
  EXPECT_EQ(a.kind, "consistency");
  EXPECT_EQ(a.key, ViolationKindName(mon.first().kind));
  const std::string line = obs::FormatAlarm(a);
  EXPECT_NE(line.find("consistency"), std::string::npos) << line;
  EXPECT_EQ(line, obs::FormatAlarm(Monitor(events, ConsistencyModel::session)
                                       .alarm()));
}

// The O(open intervals) guarantee: retained state does not grow with the
// trace. Scaling rounds 2 -> 10 quintuples the ops but must not move the
// peak by more than a round's worth of in-flight state.
TEST(ConsistMonitor, PeakRetainedIsBoundedByOpenIntervalsNotTraceLength) {
  auto peak = [](int rounds) {
    WorkloadSpec spec;
    spec.ranks = 4;
    spec.rounds = rounds;
    auto events = RecordWorkload(spec);
    ConsistencyMonitor mon = Monitor(events, ConsistencyModel::posix);
    EXPECT_TRUE(mon.clean());
    // Reads all settle; each interval keeps its newest write live (there
    // is no newer one to supersede it), so the tail is O(intervals) too.
    EXPECT_LE(mon.retained(), 8u) << "only per-interval tails may remain";
    return mon.peak_retained();
  };
  const std::size_t p2 = peak(2);
  const std::size_t p10 = peak(10);
  EXPECT_LE(p10, p2 + 4u) << "retained state must not scale with rounds";
  // And the bound is far below the trace: 4 ranks x 10 rounds = 40 writes
  // + 40 reads flowed through.
  EXPECT_LT(p10, 20u);
}

// -- Satellite: cap-vs-subscriber regression --------------------------------
//
// A tracer capped far below the event count drops events from the stored
// trace but still feeds subscribers the full stream: the online monitor
// and the alarm sinks must produce byte-identical results to an uncapped
// run of the same workload.
TEST(ConsistMonitor, CappedTracerFeedsSubscribersTheFullStream) {
  struct Run {
    std::uint64_t dropped = 0;
    bool clean = false;
    CheckStats stats;
    std::size_t peak = 0;
    std::string watermark_report;
    std::size_t slo_alarms = 0;
  };
  auto run = [](std::size_t cap) {
    WorkloadSpec spec;
    spec.model = ConsistencyModel::commit;
    spec.ranks = 4;
    spec.rounds = 4;
    obs::Tracer tracer;
    if (cap != 0) tracer.set_max_events(cap);
    ConsistencyMonitor mon(ConsistencyModel::commit);
    obs::WatermarkSink wm;
    obs::SloSink slo({{"oss:write", 1e-9, 0.5, 10.0, 4, 0.0}});
    tracer.subscribe(&mon);
    tracer.subscribe(&wm);
    tracer.subscribe(&slo);
    RunWorkload(spec, &tracer);
    tracer.flush_subscribers(0.0);
    Run r;
    r.dropped = tracer.dropped_events();
    r.clean = mon.clean();
    r.stats = mon.stats();
    r.peak = mon.peak_retained();
    std::ostringstream os;
    wm.write_report(os);
    r.watermark_report = os.str();
    r.slo_alarms = slo.alarms().size();
    return r;
  };
  const Run uncapped = run(0);
  const Run capped = run(64);
  EXPECT_EQ(uncapped.dropped, 0u);
  EXPECT_GT(capped.dropped, 0u) << "the cap must actually bite";
  EXPECT_TRUE(uncapped.clean);
  EXPECT_EQ(capped.clean, uncapped.clean);
  EXPECT_EQ(capped.stats.writes, uncapped.stats.writes);
  EXPECT_EQ(capped.stats.reads, uncapped.stats.reads);
  EXPECT_EQ(capped.stats.content_checks, uncapped.stats.content_checks);
  EXPECT_EQ(capped.stats.composite_skips, uncapped.stats.composite_skips);
  EXPECT_EQ(capped.peak, uncapped.peak);
  EXPECT_EQ(capped.watermark_report, uncapped.watermark_report);
  EXPECT_GT(uncapped.slo_alarms, 0u) << "the 1ns SLO must fire";
  EXPECT_EQ(capped.slo_alarms, uncapped.slo_alarms);
}

// Live subscription and post-hoc replay of the same tracer see the same
// stream with the same indices — the online/offline equivalence pivot.
TEST(ConsistMonitor, LiveSubscriptionMatchesReplayExactly) {
  WorkloadSpec spec;
  spec.model = ConsistencyModel::mpiio;
  spec.ranks = 4;
  spec.rounds = 3;
  spec.split_roles = true;
  obs::Tracer tracer;
  ConsistencyMonitor live(ConsistencyModel::mpiio);
  tracer.subscribe(&live);
  RunWorkload(spec, &tracer);
  tracer.flush_subscribers(0.0);

  ConsistencyMonitor replayed =
      Monitor(obs::CollectEvents(tracer), ConsistencyModel::mpiio);
  EXPECT_EQ(live.clean(), replayed.clean());
  EXPECT_EQ(live.stats().writes, replayed.stats().writes);
  EXPECT_EQ(live.stats().reads, replayed.stats().reads);
  EXPECT_EQ(live.stats().content_checks, replayed.stats().content_checks);
  EXPECT_EQ(live.stats().composite_skips, replayed.stats().composite_skips);
  EXPECT_EQ(live.peak_retained(), replayed.peak_retained());
}

// -- rpc_req causal spans ----------------------------------------------------

struct BreakdownRun {
  double final_now = 0.0;
  std::vector<obs::AnalysisEvent> events;
  obs::RequestBreakdownSink sink;
};

/// The rpc_test pipelined golden workload (same seed, same schedule),
/// optionally monitored. 24 pipelined writes + a read barrier + fsync
/// against a seeded 15% drop plan: queue waits, window stalls and retry
/// penalties all occur.
void RunPipelinedMonitored(bool subscribe, BreakdownRun* out) {
  obs::Registry reg;
  obs::Tracer tr;
  obs::Context ctx{&tr, &reg};
  sim::VirtualScheduler sched(1);
  pfs::PfsConfig cfg = pfs::PfsConfig::PanFsLike(4);
  cfg.rpc_window = 8;
  cfg.rpc_batch = 4;
  pfs::PfsCluster cluster(cfg, sched, nullptr, &ctx);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.rpc_drop_prob = 0.15;
  fault::FaultInjector inj(plan, 4);
  cluster.set_fault(&inj);
  pfs::PfsClient client(cluster, 0);
  if (subscribe) tr.subscribe(&out->sink);

  auto fh = *client.create("/shared");
  const auto rec = MakePattern(5, 0, 47 * KiB);
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(
        client.write(fh, static_cast<std::uint64_t>(i) * rec.size(), rec).ok());
  }
  Bytes out_buf(rec.size());
  EXPECT_TRUE(client.read(fh, 3 * rec.size(), out_buf).ok());
  EXPECT_TRUE(client.fsync(fh).ok());
  EXPECT_TRUE(client.close(fh).ok());
  out->final_now = client.now();
  if (subscribe) tr.flush_subscribers(client.now());
  out->events = obs::CollectEvents(tr);
}

TEST(RpcReqSpans, BreakdownsSumExactlyAndGateOnSubscribers) {
  BreakdownRun monitored, bare;
  RunPipelinedMonitored(true, &monitored);
  RunPipelinedMonitored(false, &bare);

  // Zero observer effect: attaching the sink changes no timing.
  EXPECT_EQ(monitored.final_now, bare.final_now);

  // Without a subscriber, no rpc_req span and no req arg exists anywhere.
  for (const auto& e : bare.events) {
    EXPECT_NE(e.name, "rpc_req");
    EXPECT_NE(e.name, "rpc_req_fail");
    for (const auto& [k, v] : e.args) EXPECT_NE(k, "req");
  }

  // With one, every pipelined request appears with the exact identity
  // total = queue + stall + retry + wire + service.
  const auto& reqs = monitored.sink.requests();
  ASSERT_GT(reqs.size(), 24u);  // 24 writes + metadata ops
  for (const auto& b : reqs) {
    EXPECT_GE(b.queue_s, 0.0) << "req=" << b.req;
    EXPECT_GE(b.stall_s, 0.0) << "req=" << b.req;
    EXPECT_GE(b.retry_s, 0.0) << "req=" << b.req;
    EXPECT_GE(b.wire_s, 0.0) << "req=" << b.req;
    EXPECT_GE(b.service_s, 0.0)
        << "req=" << b.req << " total=" << b.total_s << " queue=" << b.queue_s
        << " stall=" << b.stall_s << " retry=" << b.retry_s
        << " wire=" << b.wire_s;
  }
  EXPECT_TRUE(monitored.sink.exact());
  bool any_queue = false, any_retry = false;
  for (const auto& b : reqs) {
    if (b.queue_s > 0 || b.stall_s > 0) any_queue = true;
    if (b.retry_s > 0) any_retry = true;
  }
  EXPECT_TRUE(any_queue) << "batching must produce queue/stall time";
  EXPECT_TRUE(any_retry) << "the seeded 15% drop plan must produce retries";

  // req ids are per-client monotonic from 1. One public client op may
  // fan out to several wire requests (fsync flushes every touched
  // server) — those share the op's causal id but target distinct
  // servers, which is exactly what lets a consumer group a client op's
  // spans back together.
  std::map<std::uint64_t, std::set<std::uint64_t>> by_req;
  for (const auto& b : reqs) {
    EXPECT_GE(b.req, 1u);
    EXPECT_TRUE(by_req[b.req].insert(b.server).second)
        << "req=" << b.req << " srv=" << b.server
        << ": same (req, server) pair twice";
  }
  EXPECT_LT(by_req.size(), reqs.size()) << "the fsync fan-out must share ids";

  // The table renders byte-stably.
  std::ostringstream t1, t2;
  monitored.sink.write_table(t1, 8);
  monitored.sink.write_table(t2, 8);
  EXPECT_EQ(t1.str(), t2.str());
  EXPECT_NE(t1.str().find("req"), std::string::npos);
}

}  // namespace
}  // namespace pdsi::consist
