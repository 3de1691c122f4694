// hdf5lite tests: dump accounting, the individual optimisation effects,
// and determinism.
#include <gtest/gtest.h>

#include "pdsi/hdf5lite/hdf5lite.h"

namespace pdsi::hdf5lite {
namespace {

pfs::PfsConfig Cfg() { return pfs::PfsConfig::LustreLike(4); }

TEST(Dump, WritesAllPayload) {
  auto spec = GcrmSpec(16);
  const auto r = RunDump(Cfg(), spec, H5Options{});
  EXPECT_EQ(r.bytes, spec.total_bytes());
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Dump, IrregularSpecsKeepTotalConstant) {
  auto spec = ChomboSpec(8);
  const auto a = RunDump(Cfg(), spec, H5Options{});
  // Irregular record sizes must still sum to the nominal volume per rank
  // (the zero-sum perturbation contract) within the +64*k jitter term.
  EXPECT_NEAR(static_cast<double>(a.bytes),
              static_cast<double>(spec.total_bytes()),
              0.05 * spec.total_bytes());
}

TEST(Dump, CollectiveBufferingHelps) {
  auto spec = ChomboSpec(32);
  H5Options base;
  base.metadata_coalescing = true;  // isolate the data-path effect
  H5Options cb = base;
  cb.collective_buffering = true;
  const auto slow = RunDump(Cfg(), spec, base);
  const auto fast = RunDump(Cfg(), spec, cb);
  EXPECT_LT(fast.seconds, 0.6 * slow.seconds);
}

TEST(Dump, MetadataCoalescingHelps) {
  auto spec = ChomboSpec(32);
  H5Options eager;
  eager.collective_buffering = true;
  H5Options coalesced = eager;
  coalesced.metadata_coalescing = true;
  const auto slow = RunDump(Cfg(), spec, eager);
  const auto fast = RunDump(Cfg(), spec, coalesced);
  EXPECT_LT(fast.seconds, slow.seconds);
}

TEST(Dump, AlignmentNeverHurtsMuch) {
  auto spec = GcrmSpec(16);
  H5Options tuned;
  tuned.collective_buffering = true;
  tuned.metadata_coalescing = true;
  H5Options aligned = tuned;
  aligned.align_to_stripe = true;
  const auto a = RunDump(Cfg(), spec, tuned);
  const auto b = RunDump(Cfg(), spec, aligned);
  EXPECT_LT(b.seconds, 1.1 * a.seconds);
}

TEST(Dump, FullyTunedApproachesRegularStreaming) {
  auto spec = GcrmSpec(32);
  H5Options tuned;
  tuned.collective_buffering = true;
  tuned.metadata_coalescing = true;
  tuned.align_to_stripe = true;
  const auto r = RunDump(Cfg(), spec, tuned);
  const double media_peak = Cfg().num_oss * pfs::OssDisk().seq_bw_bytes;
  EXPECT_GT(r.bandwidth(), 0.4 * media_peak);
}

TEST(Dump, Deterministic) {
  auto spec = ChomboSpec(16);
  H5Options o;
  o.collective_buffering = true;
  const auto a = RunDump(Cfg(), spec, o);
  const auto b = RunDump(Cfg(), spec, o);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

}  // namespace
}  // namespace pdsi::hdf5lite
