// Tests for pdsi::tier: the erasure-coded object store (round trips,
// degraded reads, permanent device loss + rebuild-from-parity with real
// byte verification), the policy-driven TierEngine (hot/warm/cold read
// paths, watermark demotion, pins, temperature promotion, fault
// integration) and the plfs::Backend adapter that lets PLFS containers
// live on the engine. Everything runs on virtual time and is
// deterministic: the determinism cases re-run whole scenarios and demand
// identical clocks and counters.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "pdsi/common/bytes.h"
#include "pdsi/common/units.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/plfs.h"
#include "pdsi/storage/device_catalog.h"
#include "pdsi/tier/object_store.h"
#include "pdsi/tier/policy.h"
#include "pdsi/tier/tier_backend.h"
#include "pdsi/tier/tier_engine.h"

namespace pdsi {
namespace {

using tier::ObjectStore;
using tier::ObjectStoreParams;
using tier::TierEngine;
using tier::TierEngineParams;

ObjectStoreParams SmallStore(int k = 4, int m = 2, std::uint32_t devices = 8) {
  ObjectStoreParams p;
  p.data_shards = k;
  p.parity_shards = m;
  p.shard_unit = 64 * KiB;
  p.num_devices = devices;
  return p;
}

// -- ObjectStore ------------------------------------------------------------

TEST(ObjectStore, PutGetRoundTripWithUnalignedTail) {
  ObjectStore store(SmallStore());
  // 1 MiB + odd tail: exercises stripe padding and final-stripe clamping.
  const Bytes data = MakePattern(7, 0, MiB + 12345);
  auto t_put = store.put("b", "obj", data, 0.0);
  ASSERT_TRUE(t_put.ok());
  EXPECT_GT(*t_put, 0.0);

  Bytes back;
  auto t_get = store.get("b", "obj", &back, *t_put);
  ASSERT_TRUE(t_get.ok());
  EXPECT_GE(*t_get, *t_put);
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.stats().degraded_gets, 0u);

  auto sz = store.object_size("b", "obj");
  ASSERT_TRUE(sz.ok());
  EXPECT_EQ(*sz, data.size());
  EXPECT_TRUE(store.exists("b", "obj"));
  EXPECT_EQ(store.list("b"), std::vector<std::string>{"obj"});
  EXPECT_GT(store.used_bytes(), data.size());  // parity overhead

  ASSERT_TRUE(store.remove("b", "obj").ok());
  EXPECT_FALSE(store.exists("b", "obj"));
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(ObjectStore, ReplaceKeepsLatestContents) {
  ObjectStore store(SmallStore());
  ASSERT_TRUE(store.put("b", "o", MakePattern(1, 0, 300 * KiB), 0.0).ok());
  const Bytes second = MakePattern(2, 0, 100 * KiB);
  auto t = store.put("b", "o", second, 1.0);
  ASSERT_TRUE(t.ok());
  Bytes back;
  ASSERT_TRUE(store.get("b", "o", &back, *t).ok());
  EXPECT_EQ(back, second);
}

TEST(ObjectStore, RejectsInvalidArguments) {
  ObjectStore store(SmallStore());
  const Bytes data = MakePattern(1, 0, KiB);
  EXPECT_EQ(store.put("b", "o", {}, 0.0).error(), Errc::invalid);
  EXPECT_EQ(store.put("", "o", data, 0.0).error(), Errc::invalid);
  EXPECT_EQ(store.put("a/b", "o", data, 0.0).error(), Errc::invalid);
  Bytes out;
  EXPECT_EQ(store.get("b", "missing", &out, 0.0).error(), Errc::not_found);
}

TEST(ObjectStore, DegradedGetReconstructsFromParity) {
  // k+m == num_devices: every stripe touches every device, so device
  // losses translate directly into per-stripe shard losses.
  ObjectStore store(SmallStore(4, 2, 6));
  const Bytes data = MakePattern(11, 0, 700 * KiB);
  ASSERT_TRUE(store.put("b", "o", data, 0.0).ok());

  store.fail_device(0);
  store.fail_device(3);
  EXPECT_GT(store.lost_shards(), 0u);

  Bytes back;
  auto t = store.get("b", "o", &back, 10.0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(back, data);
  EXPECT_GT(store.stats().degraded_gets, 0u);
  EXPECT_GT(store.stats().degraded_stripes, 0u);

  // A third loss exceeds m = 2: unreadable, and accounted as such.
  store.fail_device(5);
  auto bad = store.get("b", "o", &back, 20.0);
  EXPECT_EQ(bad.error(), Errc::io_error);
  EXPECT_GT(store.stats().read_errors, 0u);
}

TEST(ObjectStore, RebuildRestoresBytesAndRedundancy) {
  ObjectStore store(SmallStore(4, 2, 8));
  const Bytes data = MakePattern(23, 0, 2 * MiB + 777);
  ASSERT_TRUE(store.put("b", "o", data, 0.0).ok());

  store.fail_device(1);
  store.fail_device(4);
  ASSERT_GT(store.lost_shards(), 0u);

  auto t = store.rebuild(100.0);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(*t, 100.0);
  EXPECT_EQ(store.lost_shards(), 0u);
  EXPECT_GT(store.stats().rebuilt_shards, 0u);
  EXPECT_GT(store.stats().rebuilt_bytes, 0u);

  // The rebuilt shards must carry real bytes: lose two MORE devices and
  // the object still reads back byte-identical without the originals.
  store.fail_device(2);
  store.fail_device(6);
  Bytes back;
  auto g = store.get("b", "o", &back, *t);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(back, data);
}

TEST(ObjectStore, PutNeedsKPlusMLiveDevices) {
  ObjectStore store(SmallStore(4, 2, 6));
  store.fail_device(0);
  EXPECT_EQ(store.put("b", "o", MakePattern(1, 0, KiB), 0.0).error(),
            Errc::no_space);
}

TEST(ObjectStore, CrashWindowDegradesWithoutLosingBytes) {
  // A transient fault window makes one device's shards unavailable; the
  // get reconstructs. After the window the same get is clean again.
  fault::FaultPlan plan;
  plan.oss_mtbf_s = 1e12;  // active, but no organic crashes
  fault::FaultInjector inj(plan, 6);
  // Down two of six devices: with k+m == 6 every stripe lands on all
  // devices, and any two losses are guaranteed to cover a data shard of
  // some stripe while staying within parity (m = 2).
  inj.force_down(2, 50.0, 60.0);
  inj.force_down(3, 50.0, 60.0);

  ObjectStore store(SmallStore(4, 2, 6));
  store.set_fault(&inj, 0);
  const Bytes data = MakePattern(3, 0, 512 * KiB);
  ASSERT_TRUE(store.put("b", "o", data, 0.0).ok());

  Bytes back;
  ASSERT_TRUE(store.get("b", "o", &back, 55.0).ok());
  EXPECT_EQ(back, data);
  EXPECT_GT(store.stats().degraded_gets, 0u);
  EXPECT_EQ(store.lost_shards(), 0u);

  const auto degraded_before = store.stats().degraded_gets;
  ASSERT_TRUE(store.get("b", "o", &back, 70.0).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.stats().degraded_gets, degraded_before);
}

TEST(ObjectStore, DeterministicTimings) {
  auto run = [] {
    ObjectStore store(SmallStore());
    std::vector<double> times;
    double t = 0.0;
    for (int i = 0; i < 4; ++i) {
      auto p = store.put("b", "o" + std::to_string(i),
                         MakePattern(static_cast<std::uint32_t>(i), 0,
                                     (i + 1) * 200 * KiB),
                         t);
      t = *p;
      times.push_back(t);
    }
    store.fail_device(1);
    Bytes back;
    times.push_back(*store.get("b", "o2", &back, t));
    times.push_back(*store.rebuild(times.back()));
    return times;
  };
  EXPECT_EQ(run(), run());
}

// -- TierEngine -------------------------------------------------------------

/// One engine over a 2-server PanFS-like cluster with a small flash tier,
/// sized so tests can push objects through all three tiers quickly.
struct EngineFixture {
  explicit EngineFixture(std::uint64_t flash = 64 * MiB,
                         std::uint64_t warm = 8 * MiB,
                         obs::Context* ctx = nullptr)
      : sched(1), cluster(pfs::PfsConfig::PanFsLike(2), sched) {
    TierEngineParams p;
    p.bb.ssd = storage::FlashDevice("fusionio-iodrive-duo");
    p.bb.ssd.capacity_bytes = flash;
    p.warm_capacity_bytes = warm;
    p.cold = SmallStore();
    engine = std::make_unique<TierEngine>(p, cluster, ctx);
  }

  sim::VirtualScheduler sched;
  pfs::PfsCluster cluster;
  std::unique_ptr<TierEngine> engine;
};

TEST(TierEngine, HotWriteReadRoundTrip) {
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  const Bytes data = MakePattern(5, 0, 4 * MiB);
  auto w = e.write("f", 0, data, 0.0);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(e.resident_tier("f"), tier::kHotTier);

  Bytes back(data.size());
  std::size_t n = 0;
  auto r = e.read("f", 0, back, *w, &n);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(n, data.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(e.stats().hot_hits, 1u);

  // Reads clamp at EOF.
  Bytes past(KiB);
  auto r2 = e.read("f", data.size() + KiB, past, *r, &n);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(n, 0u);
}

TEST(TierEngine, FlushDrainsToWarmAndEvictionFallsBackToWarmRead) {
  // 16 MiB flash: object A drains, then B's ingest evicts A's clean
  // staged bytes, so the next read of A is a warm (PFS) read.
  EngineFixture fx(16 * MiB, 64 * MiB);
  TierEngine& e = *fx.engine;
  const Bytes a = MakePattern(1, 0, 6 * MiB);
  double t = *e.write("a", 0, a, 0.0);
  t = e.flush(t);
  EXPECT_EQ(e.resident_tier("a"), tier::kWarmTier);
  EXPECT_EQ(e.usage(tier::kWarmTier).used, a.size());

  for (std::uint64_t off = 0; off < 12 * MiB; off += MiB) {
    t = *e.write("b", off, MakePattern(2, off, MiB), t);
  }
  ASSERT_GT(e.buffer().stats().bytes_evicted, 0u);

  Bytes back(a.size());
  auto r = e.read("a", 0, back, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back, a);
  EXPECT_EQ(e.stats().warm_hits, 1u);
  EXPECT_EQ(e.stats().hot_hits, 0u);
}

TEST(TierEngine, WatermarkDemotionArchivesColdestAndReadsBack) {
  // Warm budget 8 MiB, high watermark 0.85: three 3 MiB objects overflow
  // it, so the two oldest are demoted to the object store.
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    const std::string name(1, static_cast<char>('a' + i));
    t = *e.write(name, 0, MakePattern(static_cast<std::uint32_t>(i), 0, 3 * MiB),
                 t + 1.0);
  }
  t = e.flush(t);

  EXPECT_EQ(e.stats().demotions, 2u);
  EXPECT_EQ(e.resident_tier("a"), tier::kColdTier);
  EXPECT_EQ(e.resident_tier("b"), tier::kColdTier);
  EXPECT_EQ(e.resident_tier("c"), tier::kWarmTier);
  EXPECT_EQ(e.usage(tier::kWarmTier).used, 3 * MiB);
  EXPECT_TRUE(e.store().exists(TierEngine::kBucket, "1"));

  Bytes back(3 * MiB);
  auto r = e.read("a", 0, back, t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(FindPatternMismatch(0, 0, back), kNoMismatch);
  EXPECT_EQ(e.stats().cold_hits, 1u);
}

TEST(TierEngine, PinToColdArchivesAtFlushAndRecallsOnWrite) {
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  ASSERT_TRUE(e.pin("x", tier::kColdTier).ok());
  double t = *e.write("x", 0, MakePattern(9, 0, 2 * MiB), 0.0);
  t = e.flush(t);
  EXPECT_EQ(e.resident_tier("x"), tier::kColdTier);
  EXPECT_EQ(e.stats().demotions, 1u);

  // A write recalls + invalidates the archive copy, then the next flush
  // re-demotes the new contents.
  t = *e.write("x", MiB, MakePattern(10, MiB, MiB), t);
  EXPECT_NE(e.resident_tier("x"), tier::kColdTier);
  t = e.flush(t);
  EXPECT_EQ(e.resident_tier("x"), tier::kColdTier);

  Bytes back(2 * MiB);
  ASSERT_TRUE(e.read("x", 0, back, t).ok());
  EXPECT_EQ(FindPatternMismatch(9, 0, std::span(back).first(MiB)), kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(10, MiB, std::span(back).subspan(MiB)),
            kNoMismatch);
}

TEST(TierEngine, ObjectLargerThanTheFlashIsNotPromotedToHot) {
  // 20 MiB written in 1 MiB pieces on 16 MiB flash, flushed, then read
  // three times: the third read crosses the temperature threshold. Hot
  // promotion would absorb the whole object in one flash write, which
  // the burst buffer rejects; the object stays warm instead.
  EngineFixture fx(16 * MiB, 64 * MiB);
  TierEngine& e = *fx.engine;
  double t = 0.0;
  for (std::uint64_t off = 0; off < 20 * MiB; off += MiB) {
    t = *e.write("big", off, MakePattern(3, off, MiB), t);
  }
  t = e.flush(t);
  Bytes back(20 * MiB);
  for (int i = 0; i < 3; ++i) {
    auto r = e.read("big", 0, back, t + i);
    ASSERT_TRUE(r.ok()) << i;
    t = std::max(t, *r);
  }
  EXPECT_EQ(FindPatternMismatch(3, 0, back), kNoMismatch);
  EXPECT_EQ(e.stats().promotions, 0u);
  EXPECT_EQ(e.resident_tier("big"), tier::kWarmTier);
}

TEST(TierEngine, RecallLargerThanTheFlashIsAbsorbedInPieces) {
  // A cold-only object larger than the flash is written again: the whole
  // recalled object is re-ingested, in pieces the buffer can take.
  EngineFixture fx(16 * MiB, 64 * MiB);
  TierEngine& e = *fx.engine;
  ASSERT_TRUE(e.pin("big", tier::kColdTier).ok());
  double t = 0.0;
  for (std::uint64_t off = 0; off < 20 * MiB; off += MiB) {
    t = *e.write("big", off, MakePattern(4, off, MiB), t);
  }
  t = e.flush(t);
  ASSERT_EQ(e.resident_tier("big"), tier::kColdTier);
  const std::uint64_t absorbed = e.buffer().stats().bytes_absorbed;

  auto w = e.write("big", 5 * MiB, MakePattern(5, 5 * MiB, KiB), t);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(e.buffer().stats().bytes_absorbed - absorbed, 20 * MiB);
  t = e.flush(*w);
  EXPECT_EQ(e.resident_tier("big"), tier::kColdTier);
  Bytes back(20 * MiB);
  ASSERT_TRUE(e.read("big", 0, back, t).ok());
  EXPECT_EQ(FindPatternMismatch(4, 0, std::span(back).first(5 * MiB)), kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(5, 5 * MiB, std::span(back).subspan(5 * MiB, KiB)),
            kNoMismatch);
  EXPECT_EQ(FindPatternMismatch(4, 5 * MiB + KiB, std::span(back).subspan(5 * MiB + KiB)),
            kNoMismatch);
}

TEST(TierEngine, PinToWarmBypassesStagingFlash) {
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  ASSERT_TRUE(e.pin("w", tier::kWarmTier).ok());
  const Bytes data = MakePattern(4, 0, 2 * MiB);
  auto t = e.write("w", 0, data, 0.0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(e.resident_tier("w"), tier::kWarmTier);
  EXPECT_EQ(e.buffer().stats().writes, 0u);
  EXPECT_EQ(e.usage(tier::kWarmTier).used, data.size());

  Bytes back(data.size());
  ASSERT_TRUE(e.read("w", 0, back, *t).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(e.stats().warm_hits, 1u);
}

TEST(TierEngine, TemperaturePromotionLiftsColdObjectToWarm) {
  // a and b get archived by the watermark; three quick reads of a then
  // cross the default temperature threshold and promote it back to warm.
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {
    const std::string name(1, static_cast<char>('a' + i));
    t = *e.write(name, 0, MakePattern(static_cast<std::uint32_t>(i), 0, 3 * MiB),
                 t + 1.0);
  }
  t = e.flush(t);
  ASSERT_EQ(e.resident_tier("a"), tier::kColdTier);

  Bytes back(3 * MiB);
  for (int i = 0; i < 3; ++i) {
    auto r = e.read("a", 0, back, t + i);
    ASSERT_TRUE(r.ok());
    t = std::max(t, *r);
  }
  EXPECT_EQ(e.stats().promotions, 1u);
  EXPECT_EQ(e.stats().promoted_bytes, 3 * MiB);
  EXPECT_EQ(e.resident_tier("a"), tier::kWarmTier);
  EXPECT_EQ(FindPatternMismatch(0, 0, back), kNoMismatch);
  // The archive copy stays as clean redundancy.
  EXPECT_TRUE(e.store().exists(TierEngine::kBucket, "1"));
}

TEST(TierEngine, NamespaceOps) {
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  ASSERT_TRUE(e.write("one", 0, MakePattern(1, 0, KiB), 0.0).ok());
  ASSERT_TRUE(e.write("two", 0, MakePattern(2, 0, 2 * KiB), 1.0).ok());
  EXPECT_EQ(e.list(), (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(*e.size("two"), 2 * KiB);

  EXPECT_EQ(e.rename("one", "two").error(), Errc::exists);
  ASSERT_TRUE(e.rename("one", "uno").ok());
  EXPECT_TRUE(e.exists("uno"));
  EXPECT_FALSE(e.exists("one"));

  ASSERT_TRUE(e.remove("uno").ok());
  EXPECT_EQ(e.remove("uno").error(), Errc::not_found);
  Bytes gone(KiB);
  EXPECT_EQ(e.read("uno", 0, gone, 2.0).error(), Errc::not_found);
}

TEST(TierEngine, WarmServerCrashFailsOverWhenAllowed) {
  fault::FaultPlan plan;
  plan.oss_mtbf_s = 1e12;
  plan.read_failover = true;
  EngineFixture fx;
  TierEngine& e = *fx.engine;
  // Cover warm servers and cold devices from one injector.
  fault::FaultInjector inj(plan, fx.cluster.num_oss() + SmallStore().num_devices);
  e.set_fault(&inj);

  ASSERT_TRUE(e.pin("z", tier::kWarmTier).ok());
  const Bytes data = MakePattern(6, 0, 2 * MiB);
  double t = *e.write("z", 0, data, 0.0);
  inj.force_down(0, t + 1.0, t + 100.0);
  inj.force_down(1, t + 1.0, t + 100.0);

  // Both warm servers down: no failover target, no cold copy -> error.
  Bytes back(data.size());
  EXPECT_EQ(e.read("z", 0, back, t + 2.0).error(), Errc::io_error);
  EXPECT_EQ(e.read_errors(), 1u);

  // One server back up: the read fails over and stays correct.
  fault::FaultInjector inj2(plan, fx.cluster.num_oss() + SmallStore().num_devices);
  inj2.force_down(0, t + 1.0, t + 100.0);
  e.set_fault(&inj2);
  auto r = e.read("z", 0, back, t + 3.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(e.degraded_reads(), 1u);
}

TEST(TierEngine, DeterministicStatsAndClocks) {
  auto run = [] {
    EngineFixture fx;
    TierEngine& e = *fx.engine;
    double t = 0.0;
    for (int i = 0; i < 4; ++i) {
      const std::string name = "o" + std::to_string(i);
      for (std::uint64_t off = 0; off < 3 * MiB; off += MiB) {
        t = *e.write(name, off, MakePattern(static_cast<std::uint32_t>(i), off, MiB),
                     t);
      }
    }
    t = e.flush(t);
    Bytes back(3 * MiB);
    for (int i = 0; i < 4; ++i) {
      t = std::max(t, *e.read("o" + std::to_string(i), 0, back, t + 1.0));
    }
    const auto& s = e.stats();
    return std::vector<double>{
        t,
        static_cast<double>(s.hot_hits),    static_cast<double>(s.warm_hits),
        static_cast<double>(s.cold_hits),   static_cast<double>(s.demotions),
        static_cast<double>(s.promotions),  static_cast<double>(s.demoted_bytes),
        static_cast<double>(s.promoted_bytes),
        static_cast<double>(e.usage(tier::kWarmTier).used),
        static_cast<double>(e.store().used_bytes())};
  };
  EXPECT_EQ(run(), run());
}

// -- plfs::Backend adapter --------------------------------------------------

TEST(TierBackend, PlfsContainerRoundTripOnEngine) {
  EngineFixture fx(64 * MiB, 64 * MiB);
  plfs::Plfs fs(tier::MakeTierBackend(*fx.engine));

  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kRecord = 3571;  // unaligned
  constexpr int kSteps = 10;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    auto w = fs.open_write("/ckpt", r);
    ASSERT_TRUE(w.ok()) << ErrcName(w.error());
    for (int k = 0; k < kSteps; ++k) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(k) * kRanks + r) * kRecord;
      ASSERT_TRUE((*w)->write(off, MakePattern(r, off, kRecord)).ok());
    }
    ASSERT_TRUE((*w)->close().ok());
  }

  // The container's droppings are engine objects; the engine clock moved.
  EXPECT_FALSE(fx.engine->list().empty());
  EXPECT_GT(fs.backend().now(), 0.0);

  auto sz = fs.stat_size("/ckpt");
  ASSERT_TRUE(sz.ok());
  const std::uint64_t total = kRecord * kRanks * kSteps;
  EXPECT_EQ(*sz, total);

  auto reader = fs.open_read("/ckpt");
  ASSERT_TRUE(reader.ok());
  Bytes buf(total);
  auto n = (*reader)->read(0, buf);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, total);
  for (std::uint64_t block = 0; block < kRanks * kSteps; ++block) {
    const std::uint32_t rank = static_cast<std::uint32_t>(block % kRanks);
    const std::uint64_t off = block * kRecord;
    ASSERT_EQ(FindPatternMismatch(rank, off,
                                  std::span(buf).subspan(off, kRecord)),
              kNoMismatch)
        << "block " << block;
  }

  // Index flattening works through the adapter too.
  ASSERT_TRUE(fs.flatten_index("/ckpt").ok());
  auto reader2 = fs.open_read("/ckpt");
  ASSERT_TRUE(reader2.ok());
  EXPECT_EQ((*reader2)->size(), total);
}

TEST(BbBackend, PlfsContainerRoundTripThroughBurstBuffer) {
  // PLFS containers stage transparently through the engine's burst
  // buffer: four rank threads write one N-1 container at once, and the
  // adapter serialises them onto the engine's single timeline.
  EngineFixture fx(256 * MiB, 64 * MiB);
  plfs::Plfs fs(tier::MakeTierBackend(*fx.engine));

  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kRecord = 4801;  // unaligned
  constexpr int kSteps = 10;
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&fs, r] {
      auto w = fs.open_write("/ckpt", r);
      ASSERT_TRUE(w.ok()) << ErrcName(w.error());
      for (int k = 0; k < kSteps; ++k) {
        const std::uint64_t off =
            (static_cast<std::uint64_t>(k) * kRanks + r) * kRecord;
        ASSERT_TRUE((*w)->write(off, MakePattern(r, off, kRecord)).ok());
      }
      ASSERT_TRUE((*w)->close().ok());
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t total = kRecord * kRanks * kSteps;
  EXPECT_GT(fx.engine->buffer().stats().bytes_absorbed, total);

  auto reader = fs.open_read("/ckpt");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->size(), total);
  Bytes out(total);
  auto n = (*reader)->read(0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, total);
  for (std::uint64_t block = 0; block < kRanks * kSteps; ++block) {
    const std::uint32_t rank = static_cast<std::uint32_t>(block % kRanks);
    const std::uint64_t off = block * kRecord;
    ASSERT_EQ(FindPatternMismatch(rank, off,
                                  std::span(out).subspan(off, kRecord)),
              kNoMismatch)
        << "block " << block;
  }
}

// The namespace rules themselves are pfs::Namespace's, checked for every
// backend by BackendNamespace; this keeps the engine side of the adapter:
// payload sizes, and that the engine object follows rename and unlink.
TEST(TierBackend, NamespaceSemanticsMatchMemBackend) {
  EngineFixture fx;
  auto be = tier::MakeTierBackend(*fx.engine);
  ASSERT_TRUE(be->mkdir("/d").ok());
  auto h = be->create("/d/f");
  ASSERT_TRUE(h.ok());
  // Created but never written: size 0, stat_size 0, no engine object.
  EXPECT_EQ(*be->size(*h), 0u);
  EXPECT_EQ(*be->stat_size("/d/f"), 0u);
  EXPECT_FALSE(fx.engine->exists("/d/f"));

  const Bytes data = MakePattern(8, 0, 100 * KiB);
  ASSERT_TRUE(be->write(*h, 0, data).ok());
  EXPECT_EQ(*be->size(*h), data.size());
  ASSERT_TRUE(be->fsync(*h).ok());
  ASSERT_TRUE(be->close(*h).ok());
  EXPECT_EQ(*be->stat_size("/d/f"), data.size());

  ASSERT_TRUE(be->rename("/d/f", "/d/g").ok());
  EXPECT_FALSE(fx.engine->exists("/d/f"));
  EXPECT_TRUE(fx.engine->exists("/d/g"));
  Bytes back(data.size());
  auto h2 = be->open("/d/g");
  ASSERT_TRUE(h2.ok());
  ASSERT_EQ(*be->read(*h2, 0, back), data.size());
  EXPECT_EQ(back, data);
  ASSERT_TRUE(be->close(*h2).ok());

  ASSERT_TRUE(be->unlink("/d/g").ok());
  EXPECT_FALSE(fx.engine->exists("/d/g"));
}

TEST(TierBackend, StatSizeSeesStagedBytes) {
  // The reader's dropping-fingerprint stat pass runs while writers still
  // hold their droppings open and the bytes sit undrained on flash.
  EngineFixture fx;
  auto be = tier::MakeTierBackend(*fx.engine);
  auto h = be->create("/log.7");
  ASSERT_TRUE(h.ok());
  const Bytes data = MakePattern(7, 0, 3 * MiB + 321);
  ASSERT_TRUE(be->write(*h, 0, data).ok());
  ASSERT_GT(fx.engine->buffer().undrained_bytes(), 0u);
  EXPECT_EQ(*be->stat_size("/log.7"), data.size());

  // After the durability barrier the answer is unchanged.
  ASSERT_TRUE(be->fsync(*h).ok());
  ASSERT_EQ(fx.engine->buffer().undrained_bytes(), 0u);
  ASSERT_TRUE(be->close(*h).ok());
  EXPECT_EQ(*be->stat_size("/log.7"), data.size());

  // A sparse tail write extends the size at once.
  auto h2 = be->open("/log.7");
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(be->write(*h2, 10 * MiB, MakePattern(7, 10 * MiB, KiB)).ok());
  EXPECT_EQ(*be->stat_size("/log.7"), 10 * MiB + KiB);
  ASSERT_TRUE(be->close(*h2).ok());

  EXPECT_EQ(be->stat_size("/absent").error(), Errc::not_found);
  EXPECT_EQ(be->stat_size("/").error(), Errc::invalid);  // a directory
}

TEST(TierBackend, UnlinkDiscardsStagedDirtyBytes) {
  // Unlinking a file whose bytes never drained drops them from the flash
  // tier: they are not drained to the warm tier afterwards.
  EngineFixture fx;
  auto be = tier::MakeTierBackend(*fx.engine);
  auto h = be->create("/ckpt");
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(be->write(*h, 0, MakePattern(3, 0, 2 * MiB)).ok());
  ASSERT_TRUE(be->close(*h).ok());
  ASSERT_GT(fx.engine->buffer().dirty_bytes(), 0u);

  ASSERT_TRUE(be->unlink("/ckpt").ok());
  EXPECT_FALSE(be->exists("/ckpt").value_or(true));
  EXPECT_FALSE(fx.engine->exists("/ckpt"));
  EXPECT_EQ(fx.engine->buffer().undrained_bytes(), 0u);
  EXPECT_EQ(fx.engine->buffer().resident_bytes(), 0u);
  fx.engine->flush(be->now());
  EXPECT_EQ(fx.engine->buffer().stats().bytes_drained, 0u);
  EXPECT_EQ(fx.engine->usage(tier::kWarmTier).used, 0u);
}

}  // namespace
}  // namespace pdsi
