// Archive verification tests: library construction, campaign accounting
// invariants, retry behaviour, and the NERSC-calibrated outcome.
#include <gtest/gtest.h>

#include "pdsi/archive/archive.h"

namespace pdsi::archive {
namespace {

TEST(Library, BuildsAllCartridges) {
  Rng rng(1);
  auto mix = NerscMediaMix();
  auto lib = BuildLibrary(mix, rng);
  EXPECT_EQ(lib.size(), 6859u + 9155u + 7806u);
  for (const auto& t : lib) {
    EXPECT_LT(t.media_class, mix.size());
    EXPECT_GE(t.pass_failure_p, 0.0);
    EXPECT_LT(t.pass_failure_p, 1.0);
  }
}

TEST(Library, OlderMediaFailMorePerPass) {
  Rng rng(2);
  auto mix = NerscMediaMix();
  auto lib = BuildLibrary(mix, rng);
  double sum[3] = {0, 0, 0};
  int n[3] = {0, 0, 0};
  for (const auto& t : lib) {
    sum[t.media_class] += t.pass_failure_p;
    ++n[t.media_class];
  }
  // 9840A (12 yrs) per-pass failure rate above T10KA (2 yrs).
  EXPECT_GT(sum[2] / n[2], sum[0] / n[0]);
}

TEST(Verification, AccountingAddsUp) {
  Rng rng(3);
  auto mix = NerscMediaMix();
  auto lib = BuildLibrary(mix, rng);
  VerificationPolicy policy;
  const auto r = RunVerification(lib, policy, rng);
  EXPECT_EQ(r.tapes, lib.size());
  EXPECT_EQ(r.appliance_suspects, r.recovered_with_retries + r.unreadable);
  EXPECT_EQ(r.passes_needed.size(), r.recovered_with_retries);
}

TEST(Verification, MatchesNerscHeadlineNumbers) {
  Rng rng(4);
  auto mix = NerscMediaMix();
  auto lib = BuildLibrary(mix, rng);
  VerificationPolicy policy;
  const auto r = RunVerification(lib, policy, rng);
  // Paper: 13 of 23,820 tapes unreadable => 99.945%. Allow a band.
  EXPECT_GE(r.full_read_probability(), 0.9985);
  EXPECT_LE(r.full_read_probability(), 0.99999);
  EXPECT_GE(r.unreadable, 3u);
  EXPECT_LE(r.unreadable, 40u);
  // Worst recovered tapes took 3-5 total reads.
  std::uint32_t worst = 0;
  for (auto p : r.passes_needed) worst = std::max(worst, p);
  EXPECT_GE(worst, 3u);
  EXPECT_LE(worst, 6u);
}

TEST(Verification, MoreRetriesRecoverMore) {
  auto mix = NerscMediaMix();
  Rng rng_a(5), rng_b(5);
  auto lib = BuildLibrary(mix, rng_a);
  Rng run_a(6), run_b(6);
  VerificationPolicy one;
  one.migration_retries = 1;
  VerificationPolicy five;
  five.migration_retries = 5;
  const auto r1 = RunVerification(lib, one, run_a);
  const auto r5 = RunVerification(lib, five, run_b);
  EXPECT_GE(r1.unreadable, r5.unreadable);
}

TEST(Verification, PermanentDefectsDefeatAllRetries) {
  std::vector<MediaClass> mix(1);
  mix[0].count = 200;
  mix[0].permanent_defect_per_tape = 1.0;  // every tape has a defect
  mix[0].ageing_per_year = 1.0;
  Rng rng(7);
  auto lib = BuildLibrary(mix, rng);
  VerificationPolicy policy;
  policy.migration_retries = 50;
  const auto r = RunVerification(lib, policy, rng);
  EXPECT_EQ(r.unreadable, 200u);
  EXPECT_EQ(r.recovered_with_retries, 0u);
}

}  // namespace
}  // namespace pdsi::archive
