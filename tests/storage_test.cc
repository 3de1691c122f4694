// Tests for the disk and SSD (FTL) models, including calibration checks
// against the published Table 1 rates and the Fig. 14 collapse mechanics.
#include <gtest/gtest.h>

#include <cmath>

#include "pdsi/common/rng.h"
#include "pdsi/common/units.h"
#include "pdsi/storage/device_catalog.h"
#include "pdsi/storage/disk_model.h"
#include "pdsi/storage/ssd_model.h"

namespace pdsi::storage {
namespace {

TEST(DiskModel, SequentialIsCheaperThanRandom) {
  DiskModel d(ReferenceSataDisk());
  const double first = d.access(1, 0, 64 * KiB);
  const double seq = d.access(1, 64 * KiB, 64 * KiB);
  const double rand = d.access(1, 10 * MiB, 64 * KiB);
  EXPECT_LT(seq, rand);
  EXPECT_GT(first, seq);  // first access pays positioning
  EXPECT_GT(rand / seq, 5.0);
}

TEST(DiskModel, CrossObjectSeekCostsMoreThanSameObject) {
  DiskModel d(ReferenceSataDisk());
  d.access(1, 0, 4 * KiB);
  const double near = d.access(1, 1 * MiB, 4 * KiB);
  d.access(2, 0, 4 * KiB);
  const double far = d.access(3, 0, 4 * KiB);
  EXPECT_LT(near, far);
}

TEST(DiskModel, ReferenceDiskIsAbout90Iops) {
  DiskModel d(ReferenceSataDisk());
  Rng rng(3);
  double t = 0.0;
  const int n = 1000;
  const std::uint64_t span = d.params().capacity_bytes;  // whole-device random
  for (int i = 0; i < n; ++i) {
    t += d.access(1, rng.below(span / 4096) * 4096, 4 * KiB);
  }
  const double iops = n / t;
  EXPECT_GT(iops, 60.0);
  EXPECT_LT(iops, 130.0);
}

TEST(DiskModel, ShortSeeksCheaperThanFullStroke) {
  DiskModel d(ReferenceSataDisk());
  d.access(1, 0, 4096);
  const double near = d.access(1, 8 * MiB, 4096);
  d.access(1, 0, 4096);
  const double far = d.access(1, d.params().capacity_bytes / 2, 4096);
  EXPECT_LT(near, far);
}

TEST(DiskModel, StreamingHitsMediaRate) {
  DiskModel d(ReferenceSataDisk());
  double t = d.access(1, 0, 1 * MiB);
  for (int i = 1; i < 100; ++i) t += d.access(1, i * MiB, 1 * MiB);
  const double bw = 100.0 * MiB / t;
  EXPECT_GT(bw, 0.9 * d.params().seq_bw_bytes);
}

TEST(DiskModel, TracksSequentialityStats) {
  DiskModel d;
  d.access(1, 0, 4096);
  d.access(1, 4096, 4096);
  d.access(1, 0, 4096);
  EXPECT_EQ(d.total_requests(), 3u);
  EXPECT_EQ(d.sequential_requests(), 1u);
}

// A Table 1 device that prints as its name. gtest prints an SsdParams
// byte by byte, starting with a heap address, and ctest builds the test
// name from that print, so the name would change from build to build.
struct Table1Device : SsdParams {
  friend void PrintTo(const Table1Device& d, std::ostream* os) {
    *os << d.name;
  }
};

std::vector<Table1Device> Table1Devices() {
  std::vector<Table1Device> out;
  for (const SsdParams& p : AllFlashDevices()) out.push_back({p});
  return out;
}

class FlashTable1 : public ::testing::TestWithParam<Table1Device> {};

// Sequential bandwidth within ~25% of the Table 1 ratings.
TEST_P(FlashTable1, SequentialBandwidthMatchesRating) {
  SsdModel ssd(GetParam());
  const std::uint64_t chunk = 1 * MiB;
  const std::uint64_t total = ssd.params().capacity_bytes / 2;
  double tw = 0.0;
  for (std::uint64_t off = 0; off < total; off += chunk) tw += ssd.write(off, chunk);
  double tr = 0.0;
  for (std::uint64_t off = 0; off < total; off += chunk) tr += ssd.read(off, chunk);
  const double wbw = static_cast<double>(total) / tw;
  const double rbw = static_cast<double>(total) / tr;
  const double rated_r = ssd.params().interface_read_bw;
  const double rated_w = ssd.params().interface_write_bw;
  EXPECT_GT(rbw, 0.70 * rated_r) << ssd.params().name;
  EXPECT_LT(rbw, 1.05 * rated_r) << ssd.params().name;
  EXPECT_GT(wbw, 0.55 * rated_w) << ssd.params().name;
  EXPECT_LT(wbw, 1.05 * rated_w) << ssd.params().name;
}

// Fresh-device random 4K read IOPS within a factor of the rating.
TEST_P(FlashTable1, RandomReadIopsMatchesRating) {
  SsdModel ssd(GetParam());
  // Expected from the model directly: 1 / (cmd + one-page read).
  const double expect = 1e6 / (GetParam().cmd_overhead_us + GetParam().read_page_us);
  std::uint64_t pos = 0;
  double t = 0.0;
  const int n = 2000;
  const std::uint64_t span = ssd.params().capacity_bytes - 4096;
  for (int i = 0; i < n; ++i) {
    pos = (pos + 2654435761ULL * 4096) % span;
    t += ssd.read(pos / 4096 * 4096, 4096);
  }
  EXPECT_NEAR(n / t, expect, 0.05 * expect) << ssd.params().name;
}

INSTANTIATE_TEST_SUITE_P(AllDevices, FlashTable1,
                         ::testing::ValuesIn(Table1Devices()),
                         [](const auto& param_info) {
                           std::string n = param_info.param.name;
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

TEST(SsdModel, RandomReadsVastlyOutpaceDiskIops) {
  SsdModel ssd(FlashDevice("intel-x25m"));
  const double t = ssd.read(0, 4096);
  EXPECT_GT(1.0 / t, 10000.0);  // vs ~90 for the reference disk
}

TEST(SsdModel, SataEraRandomWritesSlowerThanReads) {
  SsdModel ssd(FlashDevice("intel-x25m"));
  const std::uint64_t span = ssd.params().capacity_bytes;
  double tr = 0.0, tw = 0.0;
  std::uint64_t pos = 0;
  for (int i = 0; i < 500; ++i) {
    pos = (pos + 2654435761ULL * 4096) % (span - 4096);
    const std::uint64_t a = pos / 4096 * 4096;
    tr += ssd.read(a, 4096);
    tw += ssd.write(a, 4096);
  }
  EXPECT_GT(tw / tr, 5.0);  // 19.1K read vs 1.49K write IOPS => ~13x
}

TEST(SsdModel, SubPageWritesNoCheaperThanFullPage) {
  // Report finding (3): random writes "worse for sizes smaller than 4 KB" —
  // a 512 B write still programs a whole page.
  SsdModel ssd(FlashDevice("fusionio-iodrive-duo"));
  const double small = ssd.write(0, 512);
  const double full = ssd.write(8192, 4096);
  EXPECT_GE(small, 0.999 * full);
}

// A deliberately low-over-provision page-mapped device: isolates the FTL
// erase-pool mechanics from interface caps and hybrid-FTL penalties.
SsdParams CollapseProneDevice(std::uint64_t capacity) {
  SsdParams p;
  p.name = "lowop-mlc";
  p.capacity_bytes = capacity;
  p.over_provision = 0.06;
  p.channels = 8;
  p.read_page_us = 25.0;
  p.program_page_us = 200.0;
  p.cmd_overhead_us = 20.0;
  p.gc_low_watermark = 0.02;
  return p;
}

TEST(SsdModel, SustainedRandomWriteCollapses) {
  // Fig. 11/14 mechanism: after the pre-erased pool is depleted, every
  // host write drags garbage-collection relocations behind it and
  // throughput collapses (paper: roughly 10x slower).
  SsdParams p = CollapseProneDevice(256 * MiB);
  SsdModel ssd(p);
  Rng rng(5);
  const std::uint64_t pages = p.capacity_bytes / 4096;  // full logical span
  auto burst = [&](int n) {
    double t = 0.0;
    for (int i = 0; i < n; ++i) t += ssd.write(rng.below(pages) * 4096, 4096);
    return n / t;
  };
  const double fresh_iops = burst(2000);
  // Hammer until well past device fill (forces steady-state GC).
  burst(static_cast<int>(pages) * 2);
  const auto before = ssd.stats();
  const double steady_iops = burst(20000);
  const auto after = ssd.stats();
  // Write amplification over the steady window alone.
  const double host = static_cast<double>(
      (after.pages_programmed - after.relocations) -
      (before.pages_programmed - before.relocations));
  const double steady_wa =
      static_cast<double>(after.pages_programmed - before.pages_programmed) / host;
  // The paper quotes ~10x for 2009-era hardware; the mechanistic model
  // reaches 4-8x on long horizons (see bench/fig14_flash_degradation) and
  // must show at least a 3x cliff plus real amplification here.
  EXPECT_GT(fresh_iops / steady_iops, 3.0);
  EXPECT_GT(steady_wa, 2.0);
  EXPECT_GT(ssd.stats().erases, 100u);
}

TEST(SsdModel, IdleGroomingRestoresPerformance) {
  // The 2010 follow-up finding: devices with generous spare flash recover
  // between bursts because idle time refills the erased pool.
  SsdParams p = CollapseProneDevice(128 * MiB);
  p.over_provision = 0.30;
  SsdModel ssd(p);
  Rng rng(7);
  const std::uint64_t pages = p.capacity_bytes * 9 / 10 / 4096;
  auto burst = [&](int n) {
    double t = 0.0;
    for (int i = 0; i < n; ++i) t += ssd.write(rng.below(pages) * 4096, 4096);
    return n / t;
  };
  burst(static_cast<int>(p.capacity_bytes / 4096) * 2);
  const double degraded = burst(2000);
  const double pool_before = ssd.free_fraction();
  ssd.idle(60.0);
  EXPECT_GT(ssd.free_fraction(), pool_before);
  const double groomed = burst(2000);
  EXPECT_GT(groomed, 1.2 * degraded);
}

TEST(SsdModel, WriteAmplificationIsOneForSequentialFill) {
  SsdParams p;
  p.capacity_bytes = 64 * MiB;
  SsdModel ssd(p);
  for (std::uint64_t off = 0; off < p.capacity_bytes; off += 128 * KiB) {
    ssd.write(off, 128 * KiB);
  }
  EXPECT_DOUBLE_EQ(ssd.stats().write_amplification(), 1.0);
}

TEST(SsdModel, SampledGcFindsTheReclaimableBlockOfAWrappingLog) {
  // A sequential log that wraps at capacity leaves every full block but
  // the oldest fully valid, so the 16-block victim sample often holds
  // only fully valid blocks. GC must then scan every block instead of
  // reporting the device wedged.
  for (const std::uint64_t cmd : {64 * KiB, 256 * KiB, 512 * KiB}) {
    SsdParams p = FlashDevice("fusionio-iodrive-duo");
    p.capacity_bytes = 8 * MiB;
    SsdModel ssd(p);
    std::uint64_t pos = 0;
    for (std::uint64_t written = 0; written < 64 * MiB; written += cmd) {
      ASSERT_NO_THROW(ssd.write(pos, cmd)) << "command " << cmd << " after " << written;
      pos = (pos + cmd) % p.capacity_bytes;
    }
    EXPECT_GT(ssd.stats().erases, 0u);
  }
}

TEST(SsdModel, RejectsDevicesWithThreeSpareBlocksOrFewer) {
  // GC's hard floor keeps one erased block, the block being filled can
  // hold a block of invalid pages, and one command programs up to a block
  // plus a straddled page: a device needs more than three spare blocks.
  SsdParams p = FlashDevice("fusionio-iodrive-duo");
  p.capacity_bytes = 64 * MiB;
  p.over_provision = 0.02;  // 16 384 logical pages, 16 768 physical: three
  EXPECT_THROW(SsdModel{p}, std::invalid_argument);
  p.capacity_bytes = 4 * MiB;
  p.over_provision = 0.25;  // 1024 logical pages, 1280 physical: two
  EXPECT_THROW(SsdModel{p}, std::invalid_argument);
  p.capacity_bytes = 8 * MiB;  // 2048 logical pages, 2560 physical: four
  EXPECT_NO_THROW(SsdModel{p});
}

TEST(SsdStats, WriteAmplificationOfPureGcWindowIsInfinite) {
  // A fresh device (no programs at all) reports 1.0 ...
  SsdStats fresh;
  EXPECT_EQ(fresh.host_pages(), 0u);
  EXPECT_DOUBLE_EQ(fresh.write_amplification(), 1.0);

  // ... but a stats window containing only GC relocations — e.g. the
  // delta across an idle-grooming pass — must report infinity, not
  // masquerade as a perfect 1.0.
  SsdParams p = CollapseProneDevice(64 * MiB);
  SsdModel ssd(p);
  Rng rng(11);
  const std::uint64_t pages = p.capacity_bytes / 4096;
  for (std::uint64_t i = 0; i < pages * 2; ++i) {
    ssd.write(rng.below(pages) * 4096, 4096);
  }
  const SsdStats before = ssd.stats();
  ssd.idle(10.0);
  const SsdStats after = ssd.stats();
  ASSERT_GT(after.relocations, before.relocations);  // grooming did work
  EXPECT_EQ(after.host_pages(), before.host_pages());
  SsdStats window;
  window.pages_programmed = after.pages_programmed - before.pages_programmed;
  window.relocations = after.relocations - before.relocations;
  EXPECT_EQ(window.host_pages(), 0u);
  EXPECT_TRUE(std::isinf(window.write_amplification()));
}

TEST(SsdModel, IdleGroomingIsIncrementalAndBounded) {
  // idle() consumes a time budget block-by-block: a short slice makes
  // partial progress, repeated slices accumulate, and a device whose pool
  // is already at the grooming target treats idle time as a no-op.
  SsdParams p = CollapseProneDevice(64 * MiB);
  p.over_provision = 0.30;
  SsdModel ssd(p);
  Rng rng(13);
  const std::uint64_t pages = p.capacity_bytes * 9 / 10 / 4096;
  for (std::uint64_t i = 0; i < pages * 3; ++i) {
    ssd.write(rng.below(pages) * 4096, 4096);
  }
  const double depleted = ssd.free_fraction();
  const double slice = 2 * p.erase_block_ms * 1e-3;  // a couple of blocks' worth
  ssd.idle(slice);
  const double after_one = ssd.free_fraction();
  EXPECT_GT(after_one, depleted);
  for (int i = 0; i < 10000; ++i) ssd.idle(slice);
  const double groomed = ssd.free_fraction();
  EXPECT_GT(groomed, after_one);
  // Converged at the grooming target: more idle time changes nothing.
  ssd.idle(3600.0);
  EXPECT_DOUBLE_EQ(ssd.free_fraction(), groomed);
  const double target = 0.9 * p.over_provision / (1.0 + p.over_provision);
  EXPECT_GE(ssd.free_fraction(), target * 0.9);
}

TEST(SsdModel, OutOfRangeAccessThrows) {
  SsdParams p;
  p.capacity_bytes = 16 * MiB;
  SsdModel ssd(p);
  EXPECT_THROW(ssd.read(p.capacity_bytes, 4096), std::out_of_range);
  EXPECT_THROW(ssd.write(p.capacity_bytes - 100, 4096), std::out_of_range);
}

TEST(DeviceCatalog, UnknownDeviceThrows) {
  EXPECT_THROW(FlashDevice("nvram-9000"), std::out_of_range);
  EXPECT_EQ(AllFlashDevices().size(), 5u);
}

}  // namespace
}  // namespace pdsi::storage
