// GIGA+ addressing algebra tests: bitmap walk-down, merge and multi-word
// scans, partition depth/child arithmetic at the radix boundary, and name
// hash spread. Split mechanics, placement invariants, stale-client
// correction and create scaling are exercised on the production
// directory in sharded_mds_test.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "pdsi/giga/giga.h"

namespace pdsi::giga {
namespace {

TEST(Bitmap, PartitionZeroAlwaysExists) {
  Bitmap b;
  EXPECT_TRUE(b.test(0));
  EXPECT_EQ(b.partition_for(0xdeadbeef), 0u);
}

TEST(Bitmap, AddressingWalksDownToExisting) {
  Bitmap b;
  b.set(1);  // depth 1: partitions 0,1
  b.set(3);  // partition 1 split at depth 1 -> 3
  // hash suffix ...11 -> 3; ...01 -> 1; ...0 -> 0.
  EXPECT_EQ(b.partition_for(0b111), 3u);
  EXPECT_EQ(b.partition_for(0b101), 1u);
  // Suffix 0b10 addresses partition 2, which does not exist; the walk
  // falls back to depth 1 (suffix 0b0) -> partition 0.
  EXPECT_EQ(b.partition_for(0b110), 0u);
}

TEST(Bitmap, MergeIsUnion) {
  Bitmap a, b;
  a.set(1);
  b.set(2);
  a.merge(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
  EXPECT_EQ(a.highest(), 2u);
}

TEST(Bitmap, HighestAcrossWords) {
  Bitmap b;
  b.set(130);
  EXPECT_EQ(b.highest(), 130u);
  EXPECT_TRUE(b.test(130));
  EXPECT_FALSE(b.test(129));
}

TEST(PartitionMath, DepthAndChild) {
  EXPECT_EQ(PartitionDepth(0), 0u);
  EXPECT_EQ(PartitionDepth(1), 1u);
  EXPECT_EQ(PartitionDepth(2), 2u);
  EXPECT_EQ(PartitionDepth(3), 2u);
  EXPECT_EQ(PartitionDepth(4), 3u);
  EXPECT_EQ(SplitChild(0, 0), 1u);
  EXPECT_EQ(SplitChild(0, 1), 2u);
  EXPECT_EQ(SplitChild(1, 1), 3u);
  EXPECT_EQ(SplitChild(3, 2), 7u);
}

TEST(PartitionMath, RadixBoundaryIsShiftSafe) {
  // Radix depth 31..32 is where a 32-bit `1u << d` would be undefined;
  // the helpers must stay exact there.
  EXPECT_EQ(PartitionDepth(0x40000000u), 31u);
  EXPECT_EQ(PartitionDepth(0x7fffffffu), 31u);
  EXPECT_EQ(PartitionDepth(0x80000000u), 32u);
  EXPECT_EQ(PartitionDepth(0xffffffffu), 32u);
  // The last splittable level: p < 2^31 splits to p + 2^31.
  EXPECT_EQ(SplitChild(5u, 31u), 5u + 0x80000000u);
  EXPECT_EQ(SplitChild(0x7fffffffu, 31u), 0xffffffffu);
}

TEST(Bitmap, DeepPartitionAddressing) {
  // A partition high enough that deriving the radix from it exercises
  // multi-word scans and 64-bit masks in partition_for.
  Bitmap b;
  const std::uint32_t deep = 1u << 20;
  b.set(deep);
  EXPECT_EQ(b.highest(), deep);
  // A hash whose low 21 bits address exactly `deep` lands there; one
  // whose candidate is absent walks down to partition 0.
  EXPECT_EQ(b.partition_for(deep), deep);
  EXPECT_EQ(b.partition_for(deep | (1ULL << 40)), deep);
  EXPECT_EQ(b.partition_for(0x2a), 0u);
}

TEST(HashName, SpreadsShortNames) {
  std::set<std::uint64_t> low3;
  for (int i = 0; i < 64; ++i) {
    low3.insert(HashName("f" + std::to_string(i)) & 7);
  }
  EXPECT_EQ(low3.size(), 8u);  // all 8 suffixes hit
}

}  // namespace
}  // namespace pdsi::giga
