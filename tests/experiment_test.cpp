// Tests for the experiment harness and the one-call explore() API.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "core/explore.hpp"

namespace pef {
namespace {

TEST(ExperimentTest, RunFillsAllFields) {
  ExperimentConfig config;
  config.nodes = 6;
  config.robots = 3;
  config.algorithm = make_algorithm("pef3+");
  config.adversary = adversary_config(AdversaryKind::kStatic);
  config.horizon = 300;
  config.seed = 5;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.algorithm_name, "pef3+");
  EXPECT_EQ(result.adversary_name, "static");
  EXPECT_EQ(result.nodes, 6u);
  EXPECT_EQ(result.robots, 3u);
  EXPECT_EQ(result.horizon, 300u);
  EXPECT_TRUE(result.perpetual);
  EXPECT_TRUE(result.adversary_legal);
  EXPECT_EQ(result.coverage.visited_node_count, 6u);
}

TEST(ExperimentTest, SameSeedSameResult) {
  ExperimentConfig config;
  config.nodes = 7;
  config.robots = 3;
  config.algorithm = make_algorithm("pef3+");
  config.adversary = adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}});
  config.horizon = 500;
  config.seed = 42;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  EXPECT_EQ(a.coverage.visit_counts, b.coverage.visit_counts);
  EXPECT_EQ(a.coverage.max_revisit_gap, b.coverage.max_revisit_gap);
  EXPECT_EQ(a.towers.tower_formation_count, b.towers.tower_formation_count);
}

TEST(ExperimentTest, DifferentSeedsUsuallyDiffer) {
  ExperimentConfig config;
  config.nodes = 7;
  config.robots = 3;
  config.algorithm = make_algorithm("pef3+");
  config.adversary = adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}});
  config.horizon = 500;
  config.seed = 1;
  const RunResult a = run_experiment(config);
  config.seed = 2;
  const RunResult b = run_experiment(config);
  EXPECT_NE(a.coverage.visit_counts, b.coverage.visit_counts);
}

TEST(ExperimentTest, BatteryRunsAllSeeds) {
  ScenarioSpec spec;
  spec.nodes = 5;
  spec.robots = 3;
  spec.algorithm = "pef3+";
  spec.adversary =
      adversary_config(AdversaryKind::kTInterval, {{"interval", 3}});
  spec.horizon = 400;
  const auto results = run_battery(spec, 100, 8);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].seed, 100u + i);
    EXPECT_TRUE(results[i].perpetual) << "seed " << results[i].seed;
  }
}

TEST(ExperimentTest, StandardBatteryIsLegalEverywhere) {
  // Every adversary family in the battery must produce connected-over-time
  // prefixes (they are the *possibility*-side workloads).
  for (const AdversaryConfig& adversary : standard_battery_configs()) {
    ExperimentConfig config;
    config.nodes = 6;
    config.robots = 3;
    config.algorithm = make_algorithm("pef3+");
    config.adversary = adversary;
    config.horizon = 800;
    config.seed = 9;
    const RunResult result = run_experiment(config);
    EXPECT_TRUE(result.adversary_legal) << adversary_display_name(adversary);
  }
}

TEST(ExploreTest, RecommendedAlgorithmIsUsed) {
  ExploreRequest request;
  request.nodes = 8;
  request.robots = 3;
  request.adversary = "static";
  request.horizon = 300;
  const ExploreOutcome outcome = explore(request);
  EXPECT_EQ(outcome.predicted, computability::Verdict::kPossible);
  EXPECT_EQ(outcome.algorithm, "pef3+");
  EXPECT_TRUE(outcome.result.perpetual);
}

TEST(ExploreTest, SmallRingsPickSmallAlgorithms) {
  {
    ExploreRequest request;
    request.nodes = 3;
    request.robots = 2;
    request.adversary = "t-interval";
    request.horizon = 500;
    const ExploreOutcome outcome = explore(request);
    EXPECT_EQ(outcome.algorithm, "pef2");
    EXPECT_TRUE(outcome.result.perpetual);
  }
  {
    ExploreRequest request;
    request.nodes = 2;
    request.robots = 1;
    request.adversary = "bernoulli";
    request.horizon = 800;
    const ExploreOutcome outcome = explore(request);
    EXPECT_EQ(outcome.algorithm, "pef1");
    EXPECT_TRUE(outcome.result.perpetual);
  }
}

TEST(ExploreTest, ImpossiblePairStillRunsAndFails) {
  // (k=2, n=8) is impossible (Theorem 4.1).  With PEF_3+ run on only two
  // robots, an eventual missing edge freezes both of them as sentinels and
  // leaves zero explorers: the middle of the chain starves.
  ExploreRequest request;
  request.nodes = 8;
  request.robots = 2;
  request.algorithm = "pef3+";
  request.adversary = "eventual-missing";
  request.horizon = 1500;
  const ExploreOutcome outcome = explore(request);
  EXPECT_EQ(outcome.predicted, computability::Verdict::kImpossible);
  EXPECT_FALSE(outcome.result.perpetual);
}

TEST(ExploreTest, AlgorithmOverride) {
  ExploreRequest request;
  request.nodes = 6;
  request.robots = 3;
  request.algorithm = "keep-direction";
  request.adversary = "static";
  request.horizon = 200;
  const ExploreOutcome outcome = explore(request);
  EXPECT_EQ(outcome.algorithm, "keep-direction");
  EXPECT_TRUE(outcome.result.perpetual);
}

}  // namespace
}  // namespace pef
