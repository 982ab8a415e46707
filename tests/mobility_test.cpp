// Tests for per-robot mobility analysis.
#include "analysis/mobility.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/sentinels.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(MobilityTest, FreeRunnerMovesEveryRound) {
  const Ring ring(6);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  sim.run(100);
  const auto report = analyze_mobility(sim.trace());
  EXPECT_EQ(report.robots[0].moves, 100u);
  EXPECT_EQ(report.robots[0].waits, 0u);
  EXPECT_EQ(report.robots[0].direction_flips, 0u);
  EXPECT_DOUBLE_EQ(report.robots[0].duty_cycle(), 1.0);
  EXPECT_EQ(report.total_moves, 100u);
}

TEST(MobilityTest, WalledRobotOnlyWaits) {
  const Ring ring(4);
  auto walled = std::make_shared<SurgerySchedule>(
      std::make_shared<StaticSchedule>(ring),
      std::vector<Removal>{{0, 0, kTimeInfinity}, {3, 0, kTimeInfinity}});
  Simulator sim(ring, make_algorithm("bounce"), make_oblivious(walled),
                {{0, Chirality(true)}});
  sim.run(50);
  const auto report = analyze_mobility(sim.trace());
  EXPECT_EQ(report.robots[0].moves, 0u);
  EXPECT_EQ(report.robots[0].waits, 50u);
  EXPECT_DOUBLE_EQ(report.robots[0].duty_cycle(), 0.0);
}

TEST(MobilityTest, BounceFlipsAtWalls) {
  const Ring ring(6);
  // Chain 0..5 via cutting edge 5: bounce patrols and flips at both ends.
  auto chain = std::make_shared<SurgerySchedule>(
      std::make_shared<StaticSchedule>(ring),
      std::vector<Removal>{{5, 0, kTimeInfinity}});
  Simulator sim(ring, make_algorithm("bounce"), make_oblivious(chain),
                {{2, Chirality(true)}});
  sim.run(200);
  const auto report = analyze_mobility(sim.trace());
  EXPECT_GT(report.robots[0].direction_flips, 10u);
  EXPECT_GT(report.robots[0].moves, 150u);
}

TEST(MobilityTest, SentinelExplorerSplitShowsInMobility) {
  // After sentinel formation, the explorer carries all movement.
  const Ring ring(8);
  const EdgeId missing = 3;
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, 10);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(1000);
  const auto sentinels = analyze_sentinels(sim.trace(), missing);
  ASSERT_TRUE(sentinels.sentinels_formed());
  const auto steady = analyze_mobility(sim.trace(), *sentinels.formation_time);
  for (RobotId s : sentinels.sentinels_at_horizon) {
    EXPECT_EQ(steady.robots[s].moves, 0u) << "sentinel r" << s << " moved";
  }
  for (RobotId e : sentinels.explorers_at_horizon) {
    EXPECT_GT(steady.robots[e].moves, 100u) << "explorer r" << e;
  }
  EXPECT_EQ(steady.idlest(), sentinels.sentinels_at_horizon[0]);
}

TEST(MobilityTest, FromParameterRestrictsWindow) {
  const Ring ring(5);
  auto blocked_then_free = std::make_shared<SurgerySchedule>(
      std::make_shared<StaticSchedule>(ring),
      std::vector<Removal>{{0, 0, 49}, {1, 0, 49}, {2, 0, 49}, {3, 0, 49},
                           {4, 0, 49}});
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(blocked_then_free), {{0, Chirality(true)}});
  sim.run(100);
  const auto all = analyze_mobility(sim.trace());
  const auto late = analyze_mobility(sim.trace(), 50);
  EXPECT_EQ(all.robots[0].moves, 50u);
  EXPECT_EQ(late.robots[0].moves, 50u);
  EXPECT_EQ(late.robots[0].waits, 0u);
  EXPECT_EQ(all.robots[0].waits, 50u);
}

TEST(MobilityTest, MeetingsCounted) {
  const Ring ring(4);
  // Head-on meeting at node 1 (see simulator_test): one shared round.
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{2, Chirality(true)}, {0, Chirality(false)}});
  sim.run(4);
  const auto report = analyze_mobility(sim.trace());
  EXPECT_GE(report.robots[0].meetings, 1u);
  EXPECT_GE(report.robots[1].meetings, 1u);
}

}  // namespace
}  // namespace pef
