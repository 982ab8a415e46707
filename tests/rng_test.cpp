// Unit tests for the deterministic RNG utilities.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace pef {
namespace {

TEST(RngTest, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, XoshiroIsDeterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Xoshiro256 rng(5);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_bool(0.5)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(RngTest, NextBelowRespectsBound) {
  Xoshiro256 rng(6);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DeriveSeedSeparatesStreams) {
  // Different coordinates must give different sub-seeds.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seeds.insert(derive_seed(123, a, b));
    }
  }
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(RngTest, DeriveSeedDeterministic) {
  EXPECT_EQ(derive_seed(9, 1, 2, 3), derive_seed(9, 1, 2, 3));
  EXPECT_NE(derive_seed(9, 1, 2, 3), derive_seed(10, 1, 2, 3));
}

// The closed-form pieces stochastic schedules draw with must equal the
// stream objects they stand for.

TEST(RngTest, FirstDrawEqualsXoshiroFirstOutput) {
  SplitMix64 seeds(2024);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t seed = seeds.next();
    ASSERT_EQ(xoshiro_first_draw(seed), Xoshiro256(seed).next()) << seed;
  }
  for (const std::uint64_t seed : {0ULL, 1ULL, ~0ULL}) {
    EXPECT_EQ(xoshiro_first_draw(seed), Xoshiro256(seed).next()) << seed;
  }
}

TEST(RngTest, DeriveSeedFromKeyFinishesDeriveSeed) {
  for (std::uint64_t master : {0ULL, 7ULL, ~0ULL}) {
    for (std::uint64_t a : {0ULL, 1ULL, 129ULL}) {
      const std::uint64_t key = derive_key(master, a);
      for (std::uint64_t b : {0ULL, 5ULL, (1ULL << 40) + 3}) {
        EXPECT_EQ(derive_seed_from_key(key, b), derive_seed(master, a, b));
        EXPECT_EQ(derive_seed_from_key(key, b, 0x3a7c0f),
                  derive_seed(master, a, b, 0x3a7c0f));
      }
    }
  }
}

TEST(RngTest, BernoulliThresholdDecidesLikeNextBool) {
  const double ulp = 0x1.0p-53;
  for (const double p : {0.0, 1e-300, ulp, 0.3, 0.5, 0.7, 1.0 - ulp, 1.0}) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    // Draws on both sides of the threshold, then arbitrary ones.
    std::vector<std::uint64_t> draws;
    for (const std::uint64_t u : {threshold - 1, threshold, threshold + 1}) {
      draws.push_back(u << 11);
      draws.push_back((u << 11) | 0x7ff);
    }
    SplitMix64 more(static_cast<std::uint64_t>(p * 1e6));
    for (int i = 0; i < 10000; ++i) draws.push_back(more.next());
    for (const std::uint64_t x : draws) {
      const bool by_double = static_cast<double>(x >> 11) * 0x1.0p-53 < p;
      ASSERT_EQ((x >> 11) < threshold, by_double) << "p=" << p << " x=" << x;
    }
  }
}

TEST(RngTest, NextBelowWithPrecomputedThresholdMatches) {
  for (const std::uint64_t bound : {1ULL, 3ULL, 6ULL, 8ULL, 1000003ULL}) {
    Xoshiro256 a(bound);
    Xoshiro256 b(bound);
    const std::uint64_t threshold = Xoshiro256::below_threshold(bound);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.next_below(bound), b.next_below(bound, threshold));
    }
  }
}

}  // namespace
}  // namespace pef
