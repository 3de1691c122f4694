// Unit tests for pdsi/common: RNG determinism and distribution moments,
// streaming statistics, CDFs, fits, table rendering, data patterns, and
// the byte-range interval set.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "pdsi/common/bytes.h"
#include "pdsi/common/interval_set.h"
#include "pdsi/common/result.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"

namespace pdsi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(13);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng r(17);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.weibull(1.0, 3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng r(19);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, GammaMoments) {
  Rng r(23);
  OnlineStats s;
  // Gamma(k, theta): mean = k*theta, var = k*theta^2.
  for (int i = 0; i < 200000; ++i) s.add(r.gamma(2.5, 3.0));
  EXPECT_NEAR(s.mean(), 7.5, 0.15);
  EXPECT_NEAR(s.variance(), 22.5, 1.5);
}

TEST(Rng, GammaSmallShape) {
  Rng r(29);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.gamma(0.5, 2.0));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng r(31);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.pareto(4.0, 1.5), 4.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(Zipf, SkewConcentratesMass) {
  Rng r(37);
  ZipfGenerator z(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z(r)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 50000 / 20);
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng r(41);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal(3.0, 1.0);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 25.0);
}

TEST(EmpiricalCdf, MonotoneAndComplete) {
  std::vector<double> v{3, 1, 2, 2, 5};
  auto cdf = EmpiricalCdf(v);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(CdfAt(cdf, 2.0), 0.6);  // 1,2,2 of 5
  EXPECT_DOUBLE_EQ(CdfAt(cdf, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(CdfAt(cdf, 99.0), 1.0);
}

TEST(FitLinear, RecoversSlopeIntercept) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  auto fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitWeibull, RecoversParameters) {
  Rng r(47);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(r.weibull(0.7, 100.0));
  auto fit = FitWeibull(samples);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.shape, 0.7, 0.02);
  EXPECT_NEAR(fit.scale, 100.0, 3.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "long-header", "c"});
  t.row({"1", "2", "3"});
  t.row({"wide-cell", "x", ""});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("wide-cell"), std::string::npos);
  // Header and both rows plus the rule.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Units, Formatting) {
  EXPECT_EQ(FormatBytes(4096), "4.00 KiB");
  EXPECT_EQ(FormatDuration(0.0125), "12.5 ms");
  EXPECT_EQ(FormatCount(12500), "12.5 K");
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Errc::not_found);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), Errc::not_found);
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_EQ(ErrcName(Errc::stale), "stale");
}

TEST(Bytes, PatternRoundTrip) {
  auto b = MakePattern(3, 1000, 256);
  EXPECT_EQ(FindPatternMismatch(3, 1000, b), kNoMismatch);
  b[100] ^= 0xff;
  EXPECT_EQ(FindPatternMismatch(3, 1000, b), 100u);
  // Wrong rank or offset is detected.
  auto c = MakePattern(4, 1000, 256);
  EXPECT_NE(FindPatternMismatch(3, 1000, c), kNoMismatch);
  auto d = MakePattern(3, 1001, 256);
  EXPECT_NE(FindPatternMismatch(3, 1000, d), kNoMismatch);
}

TEST(Bytes, HashDiscriminates) {
  auto a = MakePattern(1, 0, 64);
  auto b = MakePattern(1, 0, 64);
  EXPECT_EQ(HashBytes(a), HashBytes(b));
  b[0] ^= 1;
  EXPECT_NE(HashBytes(a), HashBytes(b));
}

TEST(IntervalSet, AddMergesOverlapsAndNeighboursCountingOnlyNewBytes) {
  RangeMap m;
  EXPECT_EQ(RangeAdd(m, 10, 20), 10u);
  EXPECT_EQ(RangeAdd(m, 30, 40), 10u);
  EXPECT_EQ(RangeAdd(m, 15, 25), 5u) << "only 20..25 is new";
  EXPECT_EQ(m, (RangeMap{{10, 25}, {30, 40}}));
  EXPECT_EQ(RangeAdd(m, 25, 30), 5u) << "touches both neighbours";
  EXPECT_EQ(m, (RangeMap{{10, 40}}));
  EXPECT_EQ(RangeAdd(m, 40, 45), 5u) << "touches on the right only";
  EXPECT_EQ(m, (RangeMap{{10, 45}}));
  EXPECT_EQ(RangeAdd(m, 12, 38), 0u) << "already covered";
  EXPECT_EQ(RangeAdd(m, 7, 7), 0u) << "empty range";
  EXPECT_EQ(m, (RangeMap{{10, 45}}));
  EXPECT_EQ(RangeAdd(m, 0, 50), 15u) << "swallows the whole set";
  EXPECT_EQ(m, (RangeMap{{0, 50}}));

  RangeMap gaps{{5, 10}, {20, 25}, {30, 35}};
  EXPECT_EQ(RangeAdd(gaps, 8, 32), 15u) << "fills 10..20 and 25..30";
  EXPECT_EQ(gaps, (RangeMap{{5, 35}}));
}

TEST(IntervalSet, RemoveSplitsRangesAndCountsRemovedBytes) {
  RangeMap m{{0, 100}};
  EXPECT_EQ(RangeRemove(m, 40, 60), 20u) << "splits one range in two";
  EXPECT_EQ(m, (RangeMap{{0, 40}, {60, 100}}));
  EXPECT_EQ(RangeRemove(m, 30, 70), 20u) << "the gap holds no bytes";
  EXPECT_EQ(m, (RangeMap{{0, 30}, {70, 100}}));
  EXPECT_EQ(RangeRemove(m, 30, 70), 0u) << "already a gap";
  EXPECT_EQ(RangeRemove(m, 90, 90), 0u) << "empty range";
  EXPECT_EQ(RangeRemove(m, 0, 30), 30u) << "exactly one range";
  EXPECT_EQ(m, (RangeMap{{70, 100}}));
  EXPECT_EQ(RangeRemove(m, 0, 200), 30u);
  EXPECT_TRUE(m.empty());
}

TEST(IntervalSet, CoversHandlesGapsAndEmptyRanges) {
  RangeMap m;
  EXPECT_TRUE(RangeCovers(m, 5, 5)) << "an empty range is always covered";
  EXPECT_FALSE(RangeCovers(m, 0, 1));
  RangeAdd(m, 10, 20);
  RangeAdd(m, 30, 40);
  EXPECT_TRUE(RangeCovers(m, 10, 20));
  EXPECT_TRUE(RangeCovers(m, 12, 18));
  EXPECT_FALSE(RangeCovers(m, 5, 15)) << "starts in a gap";
  EXPECT_FALSE(RangeCovers(m, 15, 25)) << "ends in a gap";
  EXPECT_FALSE(RangeCovers(m, 15, 35)) << "spans the gap between ranges";
  EXPECT_FALSE(RangeCovers(m, 20, 30)) << "exactly the gap";
  EXPECT_TRUE(RangeCovers(m, 50, 50)) << "empty, even past the end";
}

}  // namespace
}  // namespace pdsi
