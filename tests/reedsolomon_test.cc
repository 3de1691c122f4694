// Reed-Solomon tests: field axioms, encode/verify, reconstruction from
// every erasure pattern up to m losses, and failure cases.
#include <gtest/gtest.h>

#include "pdsi/common/rng.h"
#include "pdsi/reedsolomon/reedsolomon.h"

namespace pdsi::reedsolomon {
namespace {

TEST(GaloisField, Axioms) {
  GaloisField gf;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(1 + rng.below(255));
    const auto c = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(gf.mul(a, 1), a);
    EXPECT_EQ(gf.mul(a, 0), 0);
    EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
    EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
    EXPECT_EQ(gf.div(gf.mul(a, b), b), a);
    EXPECT_EQ(gf.mul(b, gf.inv(b)), 1);
  }
  EXPECT_THROW(gf.inv(0), std::domain_error);
  EXPECT_THROW(gf.div(1, 0), std::domain_error);
}

std::vector<Bytes> RandomShards(int k, std::size_t n, Rng& rng) {
  std::vector<Bytes> data(k, Bytes(n));
  for (auto& shard : data) {
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return data;
}

TEST(ReedSolomon, EncodeVerify) {
  Rng rng(5);
  ReedSolomon rs(6, 3);
  auto data = RandomShards(6, 4096, rng);
  auto parity = rs.encode(data);
  std::vector<Bytes> all = data;
  all.insert(all.end(), parity.begin(), parity.end());
  EXPECT_TRUE(rs.verify(all));
  all[2][100] ^= 1;
  EXPECT_FALSE(rs.verify(all));
}

struct Config {
  int k, m;
};

class RsMatrix : public ::testing::TestWithParam<Config> {};

TEST_P(RsMatrix, AllErasurePatternsUpToM) {
  const auto [k, m] = GetParam();
  Rng rng(k * 100 + m);
  ReedSolomon rs(k, m);
  auto data = RandomShards(k, 257, rng);  // odd size on purpose
  auto parity = rs.encode(data);
  std::vector<Bytes> reference = data;
  reference.insert(reference.end(), parity.begin(), parity.end());

  // Exhaustive single erasures; exhaustive pairs when tolerable; random
  // m-erasure patterns beyond.
  const int total = k + m;
  for (int a = 0; a < total; ++a) {
    auto shards = reference;
    shards[a].clear();
    rs.reconstruct(shards);
    EXPECT_EQ(shards, reference) << "erased " << a;
  }
  if (m >= 2) {
    for (int a = 0; a < total; ++a) {
      for (int b = a + 1; b < total; ++b) {
        auto shards = reference;
        shards[a].clear();
        shards[b].clear();
        rs.reconstruct(shards);
        EXPECT_EQ(shards, reference) << "erased " << a << "," << b;
      }
    }
  }
  if (m >= 3) {
    for (int trial = 0; trial < 20; ++trial) {
      auto shards = reference;
      std::vector<int> idx(total);
      for (int i = 0; i < total; ++i) idx[i] = i;
      rng.shuffle(idx);
      for (int e = 0; e < m; ++e) shards[idx[e]].clear();
      rs.reconstruct(shards);
      EXPECT_EQ(shards, reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, RsMatrix,
                         ::testing::Values(Config{2, 1}, Config{4, 2},
                                           Config{6, 3}, Config{10, 4},
                                           Config{17, 3}),
                         [](const auto& param_info) {
                           return "k" + std::to_string(param_info.param.k) +
                                  "m" + std::to_string(param_info.param.m);
                         });

TEST(ReedSolomon, TooManyErasuresThrows) {
  Rng rng(7);
  ReedSolomon rs(4, 2);
  auto data = RandomShards(4, 64, rng);
  auto parity = rs.encode(data);
  std::vector<Bytes> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  shards[0].clear();
  shards[1].clear();
  shards[4].clear();
  EXPECT_THROW(rs.reconstruct(shards), std::invalid_argument);
}

TEST(ReedSolomon, NoErasureIsANoop) {
  Rng rng(9);
  ReedSolomon rs(3, 2);
  auto data = RandomShards(3, 64, rng);
  auto parity = rs.encode(data);
  std::vector<Bytes> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  auto copy = shards;
  rs.reconstruct(shards);
  EXPECT_EQ(shards, copy);
}

// Property: at the object-store stripe geometries (8+2, 10+4), any random
// erasure pattern of up to m shards — data, parity, or a mix — round-trips
// through reconstruct with every rebuilt byte identical to the original.
// Shard sizes include the store's 256 KiB shard unit and awkward odd
// lengths (the final stripe of an unaligned object).
TEST(ReedSolomon, RandomErasuresAtStoreGeometriesRoundTrip) {
  struct Geometry {
    int k, m;
  };
  for (const Geometry g : {Geometry{8, 2}, Geometry{10, 4}}) {
    Rng rng(static_cast<std::uint64_t>(g.k * 1000 + g.m));
    ReedSolomon rs(g.k, g.m);
    for (const std::size_t shard_len : {std::size_t{256 * 1024},
                                        std::size_t{4093}, std::size_t{1}}) {
      auto data = RandomShards(g.k, shard_len, rng);
      auto parity = rs.encode(data);
      std::vector<Bytes> pristine = data;
      pristine.insert(pristine.end(), parity.begin(), parity.end());

      for (int trial = 0; trial < 50; ++trial) {
        auto shards = pristine;
        // Erase a uniformly random subset of 1..m distinct shard slots.
        const int losses = static_cast<int>(rng.range(1, g.m));
        int erased = 0;
        while (erased < losses) {
          const auto idx = static_cast<std::size_t>(rng.below(
              static_cast<std::uint64_t>(g.k + g.m)));
          if (shards[idx].empty()) continue;
          shards[idx].clear();
          ++erased;
        }
        rs.reconstruct(shards);
        ASSERT_EQ(shards, pristine)
            << "k=" << g.k << " m=" << g.m << " len=" << shard_len
            << " trial=" << trial;
      }
    }
  }
}

TEST(ReedSolomon, RejectsBadGeometry) {
  EXPECT_THROW(ReedSolomon(0, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 60), std::invalid_argument);
  ReedSolomon rs(4, 2);
  std::vector<Bytes> wrong(3, Bytes(16));
  EXPECT_THROW(rs.encode(wrong), std::invalid_argument);
  std::vector<Bytes> unequal(4, Bytes(16));
  unequal[2].resize(8);
  EXPECT_THROW(rs.encode(unequal), std::invalid_argument);
}

}  // namespace
}  // namespace pdsi::reedsolomon
