// End-to-end integration: the whole TABLE 1 verified in miniature, plus the
// ablation story of DESIGN.md.
#include <gtest/gtest.h>

#include "adversary/proof_adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "core/computability.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

// --- Possible cells: the paper's algorithm beats the whole battery --------

struct PossibleCell {
  std::uint32_t n;
  std::uint32_t k;
};

class PossibleCellTest : public ::testing::TestWithParam<PossibleCell> {};

TEST_P(PossibleCellTest, RecommendedAlgorithmExploresBattery) {
  const auto [n, k] = GetParam();
  ASSERT_EQ(computability::classify(k, n),
            computability::Verdict::kPossible);
  const std::string algo = computability::recommended_algorithm(k, n);
  for (const AdversaryConfig& adversary : standard_battery_configs()) {
    ScenarioSpec spec;
    spec.nodes = n;
    spec.robots = k;
    spec.algorithm = algo;
    spec.adversary = adversary;
    spec.horizon = 600 * n;
    spec.seed = 77;
    const RunResult result = run_scenario(spec);
    EXPECT_TRUE(result.perpetual)
        << "n=" << n << " k=" << k
        << " adversary=" << adversary_display_name(adversary);
    EXPECT_TRUE(result.adversary_legal) << adversary_display_name(adversary);
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, PossibleCellTest,
                         ::testing::Values(PossibleCell{2, 1},
                                           PossibleCell{3, 2},
                                           PossibleCell{4, 3},
                                           PossibleCell{6, 3},
                                           PossibleCell{6, 4},
                                           PossibleCell{9, 3}));

// --- Impossible cells: the proof adversary defeats every deterministic
//     algorithm we have, staying legal -------------------------------------

struct ImpossibleCell {
  std::uint32_t n;
  std::uint32_t k;
};

class ImpossibleCellTest : public ::testing::TestWithParam<ImpossibleCell> {};

TEST_P(ImpossibleCellTest, ProofAdversaryDefeatsEverything) {
  const auto [n, k] = GetParam();
  ASSERT_EQ(computability::classify(k, n),
            computability::Verdict::kImpossible);
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(n);
    std::vector<RobotPlacement> placements;
    for (std::uint32_t i = 0; i < k; ++i) {
      placements.push_back({static_cast<NodeId>(i), Chirality(true)});
    }
    Simulator sim(
        ring, make_algorithm(name),
        std::make_unique<StagedProofAdversary>(ring, 0, k + 1, /*patience=*/64),
        placements);
    sim.run(500 * n);
    const auto coverage = analyze_coverage(sim.trace());
    EXPECT_FALSE(coverage.perpetual(n)) << "n=" << n << " k=" << k << " "
                                        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, ImpossibleCellTest,
                         ::testing::Values(ImpossibleCell{4, 2},
                                           ImpossibleCell{5, 2},
                                           ImpossibleCell{8, 2},
                                           ImpossibleCell{3, 1},
                                           ImpossibleCell{4, 1},
                                           ImpossibleCell{7, 1}));

// --- Ablations: Rules 2 and 3 are both necessary ---------------------------

TEST(AblationTest, NoRule3LosesAgainstEventualMissingEdge) {
  const Ring ring(8);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 3, 10);
  Simulator sim(ring, make_algorithm("pef3+-no-rule3"),
                make_oblivious(schedule), spread_placements(ring, 3));
  sim.run(1000);
  EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(8));
}

TEST(AblationTest, NoRule2LosesAgainstEventualMissingEdge) {
  // Without Rule 2, sentinels abandon their post on every explorer visit;
  // all robots eventually drift to one side and the far side starves.
  const Ring ring(8);
  bool failed_somewhere = false;
  for (EdgeId missing = 0; missing < 8 && !failed_somewhere; ++missing) {
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), missing, 10);
    Simulator sim(ring, make_algorithm("pef3+-no-rule2"),
                  make_oblivious(schedule), spread_placements(ring, 3));
    sim.run(2000);
    failed_somewhere = !analyze_coverage(sim.trace()).perpetual(8);
  }
  EXPECT_TRUE(failed_somewhere);
}

TEST(AblationTest, FullPef3PlusWinsWhereAblationsLose) {
  const Ring ring(8);
  for (EdgeId missing = 0; missing < 8; ++missing) {
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), missing, 10);
    Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  spread_placements(ring, 3));
    sim.run(2000);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(8))
        << "missing=" << missing;
  }
}

// --- The self-check the paper's Table 1 row boundaries imply ---------------

TEST(BoundaryTest, TwoRobotsOnTriangleSucceedButFourNodesFail) {
  // n = 3 is the exact boundary for k = 2.
  {
    ScenarioSpec spec;
    spec.nodes = 3;
    spec.robots = 2;
    spec.algorithm = "pef2";
    spec.adversary =
        adversary_config(AdversaryKind::kTInterval, {{"interval", 3}});
    spec.horizon = 2000;
    spec.seed = 3;
    EXPECT_TRUE(run_scenario(spec).perpetual);
  }
  {
    const Ring ring(4);
    Simulator sim(
        ring, make_algorithm("pef2"),
        std::make_unique<StagedProofAdversary>(ring, 0, 3, /*patience=*/64),
        {{0, Chirality(true)}, {1, Chirality(true)}});
    sim.run(2000);
    EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(4));
  }
}

TEST(BoundaryTest, OneRobotOnTwoNodesSucceedsButThreeFail) {
  {
    ScenarioSpec spec;
    spec.nodes = 2;
    spec.robots = 1;
    spec.algorithm = "pef1";
    spec.adversary =
        adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}});
    spec.horizon = 2000;
    spec.seed = 4;
    EXPECT_TRUE(run_scenario(spec).perpetual);
  }
  {
    const Ring ring(3);
    Simulator sim(
        ring, make_algorithm("pef1"),
        std::make_unique<StagedProofAdversary>(ring, 0, 2, /*patience=*/64),
        {{0, Chirality(true)}});
    sim.run(2000);
    EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(3));
  }
}

}  // namespace
}  // namespace pef
