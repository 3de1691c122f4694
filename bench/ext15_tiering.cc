// Extension — policy-driven storage tiering (pdsi::tier): the PDSI
// pipeline (burst-buffer flash -> parallel FS -> erasure-coded archive)
// behind one TierEngine, exercised in the three situations the tiering
// literature cares about:
//
//   1. checkpoint drain racing analysis reads — a checkpoint drains from
//      flash to the warm servers while analysis reads hit the same
//      servers; the collision shows up as read latency, and with
//      --trace the tier/oss tracks make the critical path explicit;
//   2. tier crash with parity rebuild — an archived dataset loses
//      devices, reads degrade to on-the-fly reconstruction, rebuild()
//      re-protects, and the bytes are verified identical throughout;
//   3. capacity pressure forcing archive demotion — the warm watermark
//      demotes coldest-first into the object store and the archived
//      generation reads back intact.
//
// Everything is virtual-time and byte-reproducible.
// Gate (exit 1, reason on stderr): every scenario that verifies bytes
// (crash_rebuild, capacity_pressure) reads them back identical.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdsi/common/bytes.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/storage/device_catalog.h"
#include "pdsi/tier/policy.h"
#include "pdsi/tier/tier_engine.h"

using namespace pdsi;

namespace {

constexpr char kBench[] = "ext15_tiering";

/// A fresh three-tier stack per scenario: 4 warm servers, a staging
/// flash device, and an 8+2 archive shelf.
struct Stack {
  Stack(std::uint64_t flash, std::uint64_t warm, obs::Context* ctx)
      : sched(1), cluster(pfs::PfsConfig::PanFsLike(4), sched, nullptr, ctx) {
    tier::TierEngineParams p;
    p.bb.ssd = storage::FlashDevice("fusionio-iodrive-duo");
    p.bb.ssd.capacity_bytes = flash;
    p.warm_capacity_bytes = warm;
    engine = std::make_unique<tier::TierEngine>(p, cluster, ctx);
  }
  sim::VirtualScheduler sched;
  pfs::PfsCluster cluster;
  std::unique_ptr<tier::TierEngine> engine;
};

/// Writes `name` in 8 MiB strides and returns the last completion.
double WriteObject(tier::TierEngine& e, const std::string& name,
                   std::uint32_t seed, std::uint64_t size, double t) {
  const std::uint64_t stride = std::min<std::uint64_t>(size, 8 * MiB);
  for (std::uint64_t off = 0; off < size; off += stride) {
    const std::uint64_t n = std::min(stride, size - off);
    t = *e.write(name, off, MakePattern(seed, off, n), t);
  }
  return t;
}

bool VerifyObject(tier::TierEngine& e, const std::string& name,
                  std::uint32_t seed, std::uint64_t size, double* t) {
  Bytes buf(size);
  auto r = e.read(name, 0, buf, *t);
  if (!r.ok()) return false;
  *t = std::max(*t, *r);
  return FindPatternMismatch(seed, 0, buf) == kNoMismatch;
}

// -- Scenario 1: checkpoint drain racing analysis reads ---------------------

void ScenarioDrainRace(obs::Context* ctx) {
  PrintBanner(std::cout, "scenario 1: checkpoint drain vs analysis reads");
  const std::uint64_t kAnalysisObj = 32 * MiB;
  const int kAnalysisCount = 4;
  const std::uint64_t kCkptObj = 64 * MiB;
  const int kCkptCount = 4;

  Stack s(4 * GiB, 16 * GiB, ctx);
  tier::TierEngine& e = *s.engine;

  // The analysis working set lives on the warm tier (pinned: a shared
  // dataset, not checkpoint traffic).
  double t = 0.0;
  for (int i = 0; i < kAnalysisCount; ++i) {
    e.pin("analysis" + std::to_string(i), tier::kWarmTier);
    t = WriteObject(e, "analysis" + std::to_string(i),
                    static_cast<std::uint32_t>(100 + i), kAnalysisObj, t);
  }
  const double t_loaded = t;

  // Checkpoint: ingest into flash; the background drain immediately
  // starts pushing the same warm servers the analysis reads need.
  double absorb_done = t_loaded;
  for (int i = 0; i < kCkptCount; ++i) {
    absorb_done = WriteObject(e, "ckpt" + std::to_string(i),
                              static_cast<std::uint32_t>(i), kCkptObj,
                              absorb_done);
  }
  const double absorb_s = absorb_done - t_loaded;

  // Analysis reads issued while the drain is in flight.
  Bytes buf(kAnalysisObj);
  double racing_lat = 0.0;
  for (int i = 0; i < kAnalysisCount; ++i) {
    const double issue = absorb_done + i * 0.01;
    auto r = e.read("analysis" + std::to_string(i), 0, buf, issue);
    racing_lat += *r - issue;
  }
  racing_lat /= kAnalysisCount;

  const double drain_done = e.flush(absorb_done + kAnalysisCount * 0.01);
  const double drain_s = drain_done - t_loaded;

  // The same reads on a quiet warm tier.
  double quiet_lat = 0.0;
  for (int i = 0; i < kAnalysisCount; ++i) {
    const double issue = drain_done + 1.0 + i * 0.01;
    auto r = e.read("analysis" + std::to_string(i), 0, buf, issue);
    quiet_lat += *r - issue;
  }
  quiet_lat /= kAnalysisCount;

  const std::uint64_t ckpt_bytes = kCkptObj * kCkptCount;
  bench::Report(kBench,
                {{"", "scenario"}, {"", "ckpt_bytes"},
                 {"checkpoint absorb", "absorb_s",
                  [ckpt_bytes](double secs) {
                    return FormatRate(static_cast<double>(ckpt_bytes) / secs);
                  }},
                 {"durable (drain) time", "drain_s", FormatDuration},
                 {"analysis read latency (racing drain)", "racing_read_s", FormatDuration},
                 {"analysis read latency (quiet)", "quiet_read_s", FormatDuration},
                 {"slowdown under drain", "read_slowdown", bench::Fixed(2, "x")},
                 {"", "warm_hits"}, {"", "hot_hits"}})
      .metrics({"drain_race", ckpt_bytes, absorb_s, drain_s, racing_lat, quiet_lat,
                racing_lat / quiet_lat, e.stats().warm_hits, e.stats().hot_hits});
}

// -- Scenario 2: tier crash + rebuild from parity ---------------------------

/// Returns whether the dataset read back identical in every phase.
bool ScenarioCrashRebuild(obs::Context* ctx) {
  PrintBanner(std::cout, "scenario 2: archive device loss, degraded reads, rebuild");
  const std::uint64_t kObj = 64 * MiB;

  Stack s(1 * GiB, 8 * GiB, ctx);
  tier::TierEngine& e = *s.engine;
  e.pin("dataset", tier::kColdTier);
  double t = WriteObject(e, "dataset", 7, kObj, 0.0);
  t = e.flush(t);  // pin-to-cold: archived at the barrier

  double t0 = t + 1.0;
  const bool ok_healthy = VerifyObject(e, "dataset", 7, kObj, &t0);
  const double healthy_read_s = t0 - (t + 1.0);

  // Lose two devices: real shard bytes are destroyed, within parity.
  e.store().fail_device(1);
  e.store().fail_device(6);
  const std::uint64_t lost = e.store().lost_shards();

  double t1 = t0 + 1.0;
  const bool ok_degraded = VerifyObject(e, "dataset", 7, kObj, &t1);
  const double degraded_read_s = t1 - (t0 + 1.0);

  auto rb = e.rebuild(t1 + 1.0);
  const double rebuild_s = *rb - (t1 + 1.0);

  double t2 = *rb + 1.0;
  const bool ok_rebuilt = VerifyObject(e, "dataset", 7, kObj, &t2);
  const double rebuilt_read_s = t2 - (*rb + 1.0);

  const bool identical = ok_healthy && ok_degraded && ok_rebuilt;
  bench::Report(kBench,
                {{"", "scenario"}, {"", "object_bytes"},
                 {"healthy read", "healthy_read_s", FormatDuration},
                 {"degraded read (2 devices lost)", "degraded_read_s", FormatDuration},
                 {"degraded penalty", "degraded_penalty", bench::Fixed(2, "x")},
                 {"lost shards", "lost_shards", FormatCount},
                 {"rebuild-from-parity", "rebuild_s", FormatDuration}, {"", "rebuilt_shards"},
                 {"read after rebuild", "rebuilt_read_s", FormatDuration}, {"", "degraded_gets"},
                 {"bytes identical across all phases", "identical", bench::Flag("yes", "NO")}})
      .metrics({"crash_rebuild", kObj, healthy_read_s, degraded_read_s,
                degraded_read_s / healthy_read_s, lost, rebuild_s,
                e.store().stats().rebuilt_shards, rebuilt_read_s,
                e.store().stats().degraded_gets, identical});
  return identical;
}

// -- Scenario 3: capacity pressure forcing archive demotion -----------------

/// Returns whether the archived generation read back identical.
bool ScenarioCapacityPressure(obs::Context* ctx) {
  PrintBanner(std::cout, "scenario 3: warm watermark demotes to the archive");
  const std::uint64_t kGen = 16 * MiB;
  const int kGens = 6;
  // Warm budget fits ~4 generations; the high watermark fires during the
  // later flushes and sheds the oldest generations to the object store.
  Stack s(1 * GiB, 4 * kGen + kGen / 2, ctx);
  tier::TierEngine& e = *s.engine;

  double t = 0.0;
  for (int g = 0; g < kGens; ++g) {
    t = WriteObject(e, "gen" + std::to_string(g),
                    static_cast<std::uint32_t>(g), kGen, t + 1.0);
    t = e.flush(t);
  }

  const auto& st = e.stats();
  const double warm_frac = e.usage(tier::kWarmTier).frac();

  // The oldest generation is archive-only now; read it back and verify.
  const int cold_tier = e.resident_tier("gen0");
  double t0 = t + 1.0;
  const bool identical = VerifyObject(e, "gen0", 0, kGen, &t0);
  const double cold_read_s = t0 - (t + 1.0);

  bench::Report(kBench,
                {{"", "scenario"}, {"", "gen_bytes"},
                 {"generations written", "generations", FormatCount},
                 {"demotions", "demotions", FormatCount},
                 {"bytes demoted", "demoted_bytes", FormatBytes},
                 {"warm occupancy after", "warm_frac", bench::Pct(1)}, {"", "gen0_tier"},
                 {"archived gen0 read", "cold_read_s", FormatDuration},
                 {"gen0 bytes identical", "identical", bench::Flag("yes", "NO")}})
      .metrics({"capacity_pressure", kGen, kGens, st.demotions, st.demoted_bytes, warm_frac,
                cold_tier, cold_read_s, identical});
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Policy-driven storage tiering (pdsi::tier)",
                "flash staging, PFS warm tier and an 8+2 erasure-coded "
                "archive behind one engine; drains, demotions and rebuilds "
                "under policy control");
  bench::BenchObs trace(bench::TraceFlag(argc, argv),
                        bench::ProfileFlag(argc, argv), kBench);

  ScenarioDrainRace(trace.ctx());
  const bool rebuild_ok = ScenarioCrashRebuild(trace.ctx());
  const bool pressure_ok = ScenarioCapacityPressure(trace.ctx());

  bench::Note("shape check: analysis reads slow down while the drain holds "
              "the warm servers; archive loss within parity degrades but "
              "never corrupts (bytes verified identical before and after "
              "rebuild); watermark pressure demotes coldest generations "
              "first and they read back intact from k survivors.");
  if (!rebuild_ok) std::cerr << "ext15_tiering: FAILED: crash_rebuild bytes differ\n";
  if (!pressure_ok) std::cerr << "ext15_tiering: FAILED: capacity_pressure bytes differ\n";
  return rebuild_ok && pressure_ok ? 0 : 1;
}
