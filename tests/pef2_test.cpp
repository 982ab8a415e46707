// Tests for PEF_2 (Section 4.2): two robots on a 3-node
// connected-over-time ring.
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/schedules.hpp"
#include "kernel_robot.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

View make_view(bool ahead, bool behind, bool others) {
  View v;
  v.exists_edge_ahead = ahead;
  v.exists_edge_behind = behind;
  v.other_robots_on_node = others;
  return v;
}

TEST(Pef2ComputeTest, PointsToUniquePresentEdge) {
  KernelRobot robot(*make_algorithm("pef2"));
  // Only the behind edge present and isolated -> turn to it.
  EXPECT_EQ(robot.compute(make_view(false, true, false)),
            LocalDirection::kRight);
  // Only the (new) ahead edge present -> keep.
  EXPECT_EQ(robot.compute(make_view(true, false, false)),
            LocalDirection::kRight);
}

TEST(Pef2ComputeTest, KeepsDirectionWhenBothPresent) {
  KernelRobot robot(*make_algorithm("pef2"));
  EXPECT_EQ(robot.compute(make_view(true, true, false)),
            LocalDirection::kLeft);
}

TEST(Pef2ComputeTest, KeepsDirectionWhenNonePresent) {
  KernelRobot robot(*make_algorithm("pef2"));
  EXPECT_EQ(robot.compute(make_view(false, false, false)),
            LocalDirection::kLeft);
}

TEST(Pef2ComputeTest, KeepsDirectionInTower) {
  // "or the other robot is present on the same node" -> keep direction,
  // even with a unique present edge behind.
  KernelRobot robot(*make_algorithm("pef2"));
  EXPECT_EQ(robot.compute(make_view(false, true, true)),
            LocalDirection::kLeft);
}

// --- Behavioural tests (Theorem 4.2) --------------------------------------

Simulator make_sim(SchedulePtr schedule,
                   std::vector<RobotPlacement> placements = {
                       {0, Chirality(true)}, {1, Chirality(true)}}) {
  return Simulator(Ring(3), make_algorithm("pef2"),
                   make_oblivious(std::move(schedule)), placements);
}

TEST(Pef2BehaviourTest, ExploresStaticTriangle) {
  auto sim = make_sim(std::make_shared<StaticSchedule>(Ring(3)));
  sim.run(100);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(3));
}

TEST(Pef2BehaviourTest, ExploresWithEventualMissingEdge) {
  for (EdgeId missing = 0; missing < 3; ++missing) {
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(Ring(3)), missing, 5);
    auto sim = make_sim(schedule);
    sim.run(400);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(3))
        << "missing edge " << missing;
  }
}

TEST(Pef2BehaviourTest, ExploresBernoulliTriangle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto sim = make_sim(
        std::make_shared<BernoulliSchedule>(Ring(3), 0.4, seed));
    sim.run(2000);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(3))
        << "seed " << seed;
  }
}

TEST(Pef2BehaviourTest, ExploresWithMixedChirality) {
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(Ring(3)), 1, 4);
  auto sim = make_sim(schedule, {{0, Chirality(true)}, {2, Chirality(false)}});
  sim.run(400);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(3));
}

class Pef2SweepTest : public ::testing::TestWithParam<
                          std::tuple<std::uint64_t, double, NodeId>> {};

TEST_P(Pef2SweepTest, PerpetualAcrossSeedsAndPlacements) {
  const auto [seed, p, start] = GetParam();
  auto schedule = std::make_shared<BernoulliSchedule>(Ring(3), p, seed);
  auto sim = make_sim(schedule, {{start, Chirality(true)},
                                 {(start + 1) % 3, Chirality(true)}});
  sim.run(3000);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(3));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Pef2SweepTest,
    ::testing::Combine(::testing::Values(3ull, 17ull, 99ull),
                       ::testing::Values(0.25, 0.6),
                       ::testing::Values(0u, 1u, 2u)));

}  // namespace
}  // namespace pef
