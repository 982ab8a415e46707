// Truth tables for the activation rule (scheduler/ssync.hpp).
//
// fill_activation is the only place the SSYNC activation set and the ASYNC
// phase-advance set are written, and every engine calls it: the reference
// simulators, the unified Engine and every BatchEngine lane.  The
// differential suites therefore compare the rule against itself; these
// tables pin it to masks the test writes out on its own — all ones for
// full activation, robot t mod k for round-robin, and for Bernoulli-p the
// draws of the rule's seeded stream replayed one by one here (k trials in
// robot order, then the forced-non-empty next_below(k) pick).
#include "scheduler/async.hpp"
#include "scheduler/ssync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace pef {
namespace {

/// Robot counts on both sides of the one-word bitset boundary.
constexpr std::uint32_t kRobotCounts[] = {1, 3, 63, 64, 65, 130};

/// Round t's mask under `rule`, through the byte-mask form the engines use.
ActivationMask mask_at(ActivationRule& rule, Time t, std::uint32_t k) {
  std::vector<std::uint64_t> set;
  ActivationMask mask;
  fill_activation(rule, t, k, set, mask);
  EXPECT_EQ(set.size(), robot_words(k));
  // The bitset form carries exactly the mask's robots and no tail bits.
  for (std::uint32_t i = 0; i < 64 * robot_words(k); ++i) {
    const bool bit = ((set[i / 64] >> (i % 64)) & 1) != 0;
    EXPECT_EQ(bit, i < k && mask[i] != 0) << "k=" << k << " bit " << i;
  }
  return mask;
}

TEST(ActivationRuleTest, FullActivatesEveryRobot) {
  for (const std::uint32_t k : kRobotCounts) {
    ActivationRule rule = ActivationRule::full();
    for (Time t = 0; t < 3; ++t) {
      EXPECT_EQ(mask_at(rule, t, k), ActivationMask(k, 1)) << "k=" << k;
    }
  }
}

TEST(ActivationRuleTest, RoundRobinActivatesRobotTModK) {
  for (const std::uint32_t k : kRobotCounts) {
    ActivationRule rule = ActivationRule::round_robin();
    for (Time t = 0; t < 3 * Time{k} + 2; ++t) {
      ActivationMask expected(k, 0);
      expected[t % k] = 1;
      EXPECT_EQ(mask_at(rule, t, k), expected) << "k=" << k << " t=" << t;
    }
  }
}

/// Checks `rule` for `rounds` rounds against masks drawn here from
/// Xoshiro256(stream_seed): k next_bool(p) trials in robot order, and if
/// none succeeded, the robot next_below(k) alone.  Returns how many rounds
/// took that fallback.
int expect_bernoulli_draws(ActivationRule rule, double p,
                           std::uint64_t stream_seed, std::uint32_t k,
                           Time rounds, const std::string& label) {
  EXPECT_EQ(rule.kind, ActivationKind::kBernoulli) << label;
  Xoshiro256 rng(stream_seed);
  int fallbacks = 0;
  for (Time t = 0; t < rounds; ++t) {
    ActivationMask expected(k, 0);
    bool any = false;
    for (std::uint32_t i = 0; i < k; ++i) {
      if (rng.next_bool(p)) {
        expected[i] = 1;
        any = true;
      }
    }
    if (!any) {
      expected[rng.next_below(k)] = 1;
      ++fallbacks;
    }
    EXPECT_EQ(mask_at(rule, t, k), expected)
        << label << " k=" << k << " t=" << t;
  }
  EXPECT_EQ(rule.rng, rng) << label << " k=" << k << ": stream drift";
  return fallbacks;
}

TEST(ActivationRuleTest, StandardSsyncActivationDrawsItsSaltedStream) {
  constexpr std::uint64_t kSeed = 17;
  for (const std::uint32_t k : kRobotCounts) {
    expect_bernoulli_draws(standard_ssync_activation(0.5, kSeed).rule, 0.5,
                           derive_seed(kSeed, 0x55ac), k, 40,
                           "standard_ssync_activation");
  }
}

TEST(ActivationRuleTest, StandardAsyncPhasesDrawItsSaltedStream) {
  constexpr std::uint64_t kSeed = 17;
  for (const std::uint32_t k : kRobotCounts) {
    expect_bernoulli_draws(standard_async_phases(0.5, kSeed).rule, 0.5,
                           derive_seed(kSeed, 0xa5fc), k, 40,
                           "standard_async_phases");
  }
}

// At p = 0.02 most rounds draw no robot, so the forced-non-empty pick runs
// (and every mask still holds exactly the drawn robots, never none).
TEST(ActivationRuleTest, SmallPTakesTheForcedNonEmptyPick) {
  constexpr std::uint64_t kSeed = 5;
  for (const std::uint32_t k : {4u, 70u}) {
    const int fallbacks = expect_bernoulli_draws(
        standard_ssync_activation(0.02, kSeed).rule, 0.02,
        derive_seed(kSeed, 0x55ac), k, 100, "p=0.02");
    EXPECT_GT(fallbacks, 0) << "k=" << k;
  }
}

}  // namespace
}  // namespace pef
