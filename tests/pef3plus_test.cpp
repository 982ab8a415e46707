// Tests for PEF_3+ (Algorithm 1): compute-phase semantics, the three rules
// (plus the rule-level behaviour of the no-rule2 / no-rule3 ablations), and
// the behaviours proved in Section 3 (sentinel formation, tower lemmas,
// perpetual exploration).
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/sentinels.hpp"
#include "analysis/towers.hpp"
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

// has_moved() reads the robot's HasMovedPreviousStep.
bool has_moved(const KernelRobot& robot) {
  return robot.state().has_moved != 0;
}

TEST(Pef3PlusComputeTest, Rule1KeepsDirectionWhenAlone) {
  KernelRobot robot(*make_algorithm("pef3+"));
  EXPECT_EQ(robot.compute(make_view(true, true, false)),
            LocalDirection::kLeft);
  EXPECT_TRUE(has_moved(robot));
}

TEST(Pef3PlusComputeTest, Rule2SentinelKeepsDirection) {
  // Did NOT move last round (edge was absent), now in a tower: keep dir.
  KernelRobot robot(*make_algorithm("pef3+"));
  // Round 1: alone, pointed edge absent -> has_moved becomes false.
  EXPECT_EQ(robot.compute(make_view(false, true, false)),
            LocalDirection::kLeft);
  EXPECT_FALSE(has_moved(robot));
  // Round 2: tower formed by an arriving robot: Rule 2 keeps direction.
  EXPECT_EQ(robot.compute(make_view(false, true, true)),
            LocalDirection::kLeft);
}

TEST(Pef3PlusComputeTest, Rule3ArrivingRobotTurnsBack) {
  KernelRobot robot(*make_algorithm("pef3+"));
  // Round 1: alone, pointed edge present -> moves (has_moved = true).
  robot.compute(make_view(true, true, false));
  // Round 2: lands on a tower: Rule 3 turns it back.
  EXPECT_EQ(robot.compute(make_view(true, true, true)),
            LocalDirection::kRight);
}

TEST(Pef3PlusComputeTest, HasMovedTracksUpdatedDirection) {
  // After the Rule 3 flip, line 4 evaluates ExistsEdge against the *new*
  // direction.
  KernelRobot robot(*make_algorithm("pef3+"));
  robot.compute(make_view(true, true, false));  // moved
  // Tower; ahead (old dir) present, behind (new dir) absent: flips, then
  // records that it will NOT move.
  EXPECT_EQ(robot.compute(make_view(true, false, true)),
            LocalDirection::kRight);
  EXPECT_FALSE(has_moved(robot));
  // Next round, a tower again: has_moved_previous_step == false -> Rule 2
  // applies, direction kept even though in a tower.
  EXPECT_EQ(robot.compute(make_view(true, true, true)),
            LocalDirection::kRight);
}

// The ablations (pef3+-no-rule2 / pef3+-no-rule3) at the rule level.

TEST(Pef3PlusNoRule2ComputeTest, SentinelTurnsBackWithoutTheHasMovedGuard) {
  // The Rule 2 scenario above: a robot that did NOT move sees a tower.
  // Without the guard it abandons its post.
  KernelRobot robot(*make_algorithm("pef3+-no-rule2"));
  EXPECT_EQ(robot.compute(make_view(false, true, false)),
            LocalDirection::kLeft);
  EXPECT_FALSE(has_moved(robot));
  EXPECT_EQ(robot.compute(make_view(false, true, true)),
            LocalDirection::kRight);
  // HasMoved is evaluated against the new direction (behind was present).
  EXPECT_TRUE(has_moved(robot));
}

TEST(Pef3PlusNoRule2ComputeTest, KeepsDirectionWhenAloneAndTurnsOnArrival) {
  KernelRobot robot(*make_algorithm("pef3+-no-rule2"));
  EXPECT_EQ(robot.compute(make_view(true, false, false)),
            LocalDirection::kLeft);
  EXPECT_TRUE(has_moved(robot));
  // Arriving onto a tower turns back, exactly like Rule 3.
  EXPECT_EQ(robot.compute(make_view(true, false, true)),
            LocalDirection::kRight);
  EXPECT_FALSE(has_moved(robot));
}

TEST(Pef3PlusNoRule3ComputeTest, NeverTurnsEvenWhenArrivingOnATower) {
  // The Rule 3 scenario above: a robot that moved lands on a tower.  With
  // Rule 3 dropped it keeps going.
  KernelRobot robot(*make_algorithm("pef3+-no-rule3"));
  EXPECT_EQ(robot.compute(make_view(true, true, false)),
            LocalDirection::kLeft);
  EXPECT_TRUE(has_moved(robot));
  EXPECT_EQ(robot.compute(make_view(true, false, true)),
            LocalDirection::kLeft);
  EXPECT_TRUE(has_moved(robot));
}

TEST(Pef3PlusNoRule3ComputeTest, HasMovedTracksThePointedEdge) {
  KernelRobot robot(*make_algorithm("pef3+-no-rule3"), 0, LocalDirection::kRight);
  EXPECT_EQ(robot.compute(make_view(false, true, true)),
            LocalDirection::kRight);
  EXPECT_FALSE(has_moved(robot));
  EXPECT_EQ(robot.compute(make_view(true, false, false)),
            LocalDirection::kRight);
  EXPECT_TRUE(has_moved(robot));
}

// --- Behavioural tests --------------------------------------------------

Simulator make_sim(std::uint32_t n, std::uint32_t k, SchedulePtr schedule) {
  const Ring ring(n);
  return Simulator(ring, make_algorithm("pef3+"),
                   make_oblivious(std::move(schedule)),
                   spread_placements(ring, k));
}

TEST(Pef3PlusBehaviourTest, ExploresStaticRing) {
  auto sim = make_sim(8, 3, std::make_shared<StaticSchedule>(Ring(8)));
  sim.run(200);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(8));
  EXPECT_LE(coverage.max_revisit_gap, 16u);
}

TEST(Pef3PlusBehaviourTest, SentinelsFormAtEventualMissingEdge) {
  const Ring ring(8);
  const EdgeId missing = 5;
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, /*vanish_time=*/10);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(600);

  const auto sentinels = analyze_sentinels(sim.trace(), missing);
  EXPECT_TRUE(sentinels.sentinels_formed());
  EXPECT_EQ(sentinels.sentinels_at_horizon.size(), 2u);  // Lemma 3.7
  EXPECT_EQ(sentinels.explorers_at_horizon.size(), 1u);  // k - 2 explorers

  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(8));  // Theorem 3.1 with a missing edge
}

TEST(Pef3PlusBehaviourTest, TowerLemmasHoldOnEventualMissingEdge) {
  const Ring ring(10);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 0, 15);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 4));
  sim.run(800);
  const auto towers = analyze_towers(sim.trace());
  EXPECT_TRUE(towers.lemma_3_4_holds) << "tower of 3+ robots observed";
  EXPECT_TRUE(towers.lemma_3_3_holds)
      << "2-tower with equal global directions observed";
  EXPECT_GT(towers.tower_formation_count, 0u);
}

TEST(Pef3PlusBehaviourTest, ExploresBernoulliRing) {
  auto sim = make_sim(6, 3, std::make_shared<BernoulliSchedule>(Ring(6), 0.5,
                                                                1234));
  sim.run(3000);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(6));
}

TEST(Pef3PlusBehaviourTest, MoreRobotsThanThreeStillExplore) {
  const Ring ring(9);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 4, 12);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 5));
  sim.run(1200);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(9));
  EXPECT_TRUE(analyze_towers(sim.trace()).lemma_3_4_holds);
}

TEST(Pef3PlusBehaviourTest, MixedChiralityStillExplores) {
  // Robots need not share chirality; PEF_3+ must work regardless.
  const Ring ring(7);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 2, 9);
  std::vector<RobotPlacement> placements{
      {0, Chirality(true)}, {3, Chirality(false)}, {5, Chirality(true)}};
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                placements);
  sim.run(900);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(7));
}

class Pef3PlusSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(Pef3PlusSweepTest, PerpetualOnTIntervalRings) {
  const auto [n, k, seed] = GetParam();
  const Ring ring(n);
  auto schedule =
      std::make_shared<TIntervalConnectedSchedule>(ring, 3, seed);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, k));
  sim.run(400 * n);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(n)) << "n=" << n << " k=" << k;
  EXPECT_TRUE(analyze_towers(sim.trace()).lemma_3_4_holds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Pef3PlusSweepTest,
    ::testing::Combine(::testing::Values(4u, 6u, 9u, 12u),
                       ::testing::Values(3u),
                       ::testing::Values(11ull, 22ull)));

}  // namespace
}  // namespace pef
