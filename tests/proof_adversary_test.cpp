// Tests for the staged proof adversaries (Theorems 4.1 and 5.1, Figures 2/3).
#include "adversary/proof_adversary.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

constexpr Time kPatience = 64;

TEST(ProofThm51Test, SingleRobotConfinedToTwoNodes) {
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(6);
    Simulator sim(
        ring, make_algorithm(name),
        std::make_unique<StagedProofAdversary>(ring, 2, 2, kPatience),
        {{2, Chirality(true)}});
    sim.run(1500);
    EXPECT_LE(analyze_coverage(sim.trace()).visited_node_count, 2u) << name;
  }
}

TEST(ProofThm51Test, RealizedGraphIsLegalForEveryAlgorithm) {
  // The dichotomy of the proof: either the robot keeps moving (all absence
  // intervals close) or it camps (the adversary degrades to one eventual
  // missing edge).  Both realized prefixes are connected-over-time.
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(6);
    auto adversary =
        std::make_unique<StagedProofAdversary>(ring, 2, 2, kPatience);
    Simulator sim(ring, make_algorithm(name), std::move(adversary),
                  {{2, Chirality(true)}});
    sim.run(1500);
    const auto audit = audit_connectivity(ring, sim.trace().edge_history(),
                                          /*patience=*/400);
    EXPECT_TRUE(audit.connected_over_time) << name;
    EXPECT_LE(audit.suspected_missing.size(), 1u) << name;
  }
}

TEST(ProofThm51Test, BounceKeepsAdversaryStaging) {
  // Bounce departs under OneEdge, so the staged dance never terminates:
  // many completed stages, no terminal mode.
  const Ring ring(5);
  auto adversary =
      std::make_unique<StagedProofAdversary>(ring, 1, 2, kPatience);
  auto* handle = adversary.get();
  Simulator sim(ring, make_algorithm("bounce"), std::move(adversary),
                {{1, Chirality(true)}});
  sim.run(600);
  EXPECT_FALSE(handle->in_terminal_mode());
  EXPECT_GT(handle->stages_completed(), 100u);
  // Stages alternate between the two window nodes.
  const auto& log = handle->stage_log();
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].from, i % 2 == 0 ? 1u : 2u);
    EXPECT_EQ(log[i].to, i % 2 == 0 ? 2u : 1u);
    EXPECT_EQ(log[i].removed_edges.size(), 1u);
  }
}

TEST(ProofThm51Test, KeepDirectionTriggersTerminalMode) {
  // KeepDirection camps under OneEdge: the adversary must degrade to a
  // single eventual missing edge, and exploration still fails.
  const Ring ring(6);
  auto adversary =
      std::make_unique<StagedProofAdversary>(ring, 2, 2, kPatience);
  auto* handle = adversary.get();
  Simulator sim(ring, make_algorithm("keep-direction"), std::move(adversary),
                {{2, Chirality(true)}});
  sim.run(1000);
  EXPECT_TRUE(handle->in_terminal_mode());
  ASSERT_TRUE(handle->terminal_edge().has_value());
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_LT(coverage.visited_node_count, 6u);
}

TEST(ProofThm41Test, TwoRobotsConfinedToThreeNodes) {
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(8);
    Simulator sim(
        ring, make_algorithm(name),
        std::make_unique<StagedProofAdversary>(ring, 2, 3, kPatience),
        {{2, Chirality(true)}, {3, Chirality(true)}});
    sim.run(2000);
    const auto coverage = analyze_coverage(sim.trace());
    // Staged mode confines to the 3-node window; terminal mode (camping
    // algorithms) leaves one eventual missing edge, under which the run
    // must still fail to explore all 8 nodes perpetually.
    EXPECT_FALSE(coverage.perpetual(8)) << name;
  }
}

TEST(ProofThm41Test, StagedModeReproducesFigure2Rotation) {
  // Against bounce, the stage log must reproduce the proof's rotation:
  // designated robot moves v->w, u->v, v->u, w->v, ... within {u,v,w}.
  const Ring ring(8);
  const NodeId u = 2, v = 3, w = 4;
  auto adversary =
      std::make_unique<StagedProofAdversary>(ring, u, 3, kPatience);
  auto* handle = adversary.get();
  Simulator sim(ring, make_algorithm("bounce"), std::move(adversary),
                {{u, Chirality(true)}, {v, Chirality(true)}});
  sim.run(2000);
  EXPECT_FALSE(handle->in_terminal_mode());
  const auto& log = handle->stage_log();
  ASSERT_GE(log.size(), 8u);
  for (const auto& stage : log) {
    // Every stage moves the designated robot between adjacent window nodes.
    EXPECT_TRUE(stage.from == u || stage.from == v || stage.from == w);
    EXPECT_TRUE(stage.to == u || stage.to == v || stage.to == w);
    EXPECT_EQ(ring.distance(stage.from, stage.to), 1u);
    // Removal sets match the paper's shape: 2 or 3 edges.
    EXPECT_GE(stage.removed_edges.size(), 1u);
    EXPECT_LE(stage.removed_edges.size(), 3u);
  }
}

TEST(ProofThm41Test, LegalityForEveryAlgorithm) {
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(8);
    auto adversary =
        std::make_unique<StagedProofAdversary>(ring, 2, 3, kPatience);
    Simulator sim(ring, make_algorithm(name), std::move(adversary),
                  {{2, Chirality(true)}, {3, Chirality(true)}});
    sim.run(2000);
    const auto audit = audit_connectivity(ring, sim.trace().edge_history(),
                                          /*patience=*/500);
    EXPECT_LE(audit.suspected_missing.size(), 1u) << name;
    EXPECT_TRUE(audit.connected_over_time) << name;
  }
}

TEST(ProofThm41Test, Pef3PlusWithTwoRobotsFails) {
  // The headline negative: the paper's own algorithm, run with only two
  // robots, is defeated (this is why [4] left k=3 necessity open and this
  // paper closed it).
  const Ring ring(10);
  Simulator sim(ring, make_algorithm("pef3+"),
                std::make_unique<StagedProofAdversary>(ring, 0, 3, kPatience),
                {{0, Chirality(true)}, {1, Chirality(true)}});
  sim.run(3000);
  EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(10));
}

class ProofSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, NodeId>> {};

TEST_P(ProofSweepTest, ConfinementHoldsAcrossSizesAndAnchors) {
  const auto [n, anchor] = GetParam();
  if (anchor >= n) GTEST_SKIP();
  const Ring ring(n);
  Simulator sim(
      ring, make_algorithm("bounce"),
      std::make_unique<StagedProofAdversary>(ring, anchor, 2, kPatience),
      {{anchor, Chirality(true)}});
  sim.run(800);
  EXPECT_LE(analyze_coverage(sim.trace()).visited_node_count, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProofSweepTest,
    ::testing::Combine(::testing::Values(3u, 4u, 7u, 12u),
                       ::testing::Values(0u, 1u, 5u)));

}  // namespace
}  // namespace pef
