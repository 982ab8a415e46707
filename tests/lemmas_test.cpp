// Mechanical checks of the intermediate lemmas of Section 3 — the stepping
// stones of Theorem 3.1, observed on real executions rather than assumed.
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/towers.hpp"
#include "common/rng.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

// Lemma 3.1: if there exists an eventual missing edge, then at least one
// tower is formed.
class Lemma31Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma31Test, EventualMissingEdgeForcesTowers) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const auto n = static_cast<std::uint32_t>(5 + rng.next_below(8));
  const auto missing = static_cast<EdgeId>(rng.next_below(n));
  const Ring ring(n);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing,
      5 + rng.next_below(20));
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(400 * n);
  EXPECT_GT(analyze_towers(sim.trace()).tower_formation_count, 0u)
      << "n=" << n << " missing=" << missing;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma31Test,
                         ::testing::Range<std::uint64_t>(1, 11));

// Lemma 3.2: if an execution contains no tower, every node is infinitely
// often visited.  (Contrapositive check: tower-free runs of PEF_3+ — e.g.
// all same chirality on a static ring — explore perpetually.)
TEST(Lemma32Test, TowerFreeExecutionsExplore) {
  for (std::uint32_t n : {5u, 8u, 12u}) {
    const Ring ring(n);
    Simulator sim(ring, make_algorithm("pef3+"),
                  make_oblivious(std::make_shared<StaticSchedule>(ring)),
                  spread_placements(ring, 3));
    sim.run(300 * n);
    const auto towers = analyze_towers(sim.trace());
    ASSERT_EQ(towers.tower_formation_count, 0u)
        << "setup was meant to be tower-free";
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n));
  }
}

// Lemma 3.5: no eventual missing edge + towers happen => still explores.
TEST(Lemma35Test, TowersWithoutMissingEdgeStillExplore) {
  // Mixed chirality forces meetings on a fully recurrent (t-interval) ring.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::uint32_t n = 8;
    const Ring ring(n);
    auto schedule =
        std::make_shared<TIntervalConnectedSchedule>(ring, 3, seed);
    std::vector<RobotPlacement> placements{{0, Chirality(true)},
                                           {3, Chirality(false)},
                                           {6, Chirality(true)}};
    Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  placements);
    sim.run(500 * n);
    const auto towers = analyze_towers(sim.trace());
    EXPECT_GT(towers.tower_formation_count, 0u) << "seed=" << seed;
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n))
        << "seed=" << seed;
  }
}

// Lemma 3.6 (progress): with an eventual missing edge, the set of visited
// nodes keeps growing towards the extremities — operationally, every node
// is visited within a bounded delay once the edge is gone.
TEST(Lemma36Test, ProgressTowardsTheMissingEdge) {
  const std::uint32_t n = 10;
  const Ring ring(n);
  const EdgeId missing = 4;
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, 10);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(3000);
  // Every node — including both extremities of the missing edge — is
  // re-visited with a gap bounded well below the horizon.
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(n));
  EXPECT_LE(coverage.max_closed_gap, 6u * n);
}

// Theorem 4.2's key step: any PEF_2 tower on the 3-ring is broken in
// finite time.
TEST(Theorem42Test, PefTwoTowersBreak) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Ring ring(3);
    auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.5, seed);
    Simulator sim(ring, make_algorithm("pef2"), make_oblivious(schedule),
                  {{0, Chirality(true)}, {1, Chirality(false)}});
    sim.run(3000);
    const auto towers = analyze_towers(sim.trace());
    // No tower survives to the horizon and none lasts absurdly long.
    for (const auto& tower : towers.towers) {
      EXPECT_LT(tower.duration(), 200u) << "seed=" << seed;
    }
  }
}

// The paper's Section 3 observation that PEF_3+ towers involve at most two
// robots even at very high densities (k close to n).
TEST(Lemma34DensityTest, HighDensityStillAtMostPairs) {
  const std::uint32_t n = 9;
  const std::uint32_t k = 8;  // k = n - 1, the densest legal configuration
  const Ring ring(n);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.6, seed);
    Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  spread_placements(ring, k));
    sim.run(2000);
    const auto towers = analyze_towers(sim.trace());
    EXPECT_TRUE(towers.lemma_3_4_holds) << "seed=" << seed;
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n));
  }
}

}  // namespace
}  // namespace pef
