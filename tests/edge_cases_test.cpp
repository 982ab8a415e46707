// Defensive edge-case and bounds tests across the substrate: the checks a
// downstream user hits first when holding the API wrong.
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "adversary/confinement.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/towers.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/ring.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(EdgeCasesDeathTest, RingRejectsDegenerateSizes) {
  EXPECT_DEATH({ Ring ring(1); (void)ring; }, "n >= 2");
  EXPECT_DEATH({ Ring ring(0); (void)ring; }, "n >= 2");
}

TEST(EdgeCasesDeathTest, RingBoundsChecked) {
  const Ring ring(4);
  EXPECT_DEATH({ (void)ring.neighbour(4, GlobalDirection::kClockwise); },
               "is_valid_node");
  EXPECT_DEATH({ (void)ring.edge_tail(4); }, "is_valid_edge");
}

TEST(EdgeCasesDeathTest, EdgeSetBoundsChecked) {
  EdgeSet s(3);
  EXPECT_DEATH({ (void)s.contains(3); }, "edge_count");
  EXPECT_DEATH({ s.insert(7); }, "edge_count");
}

TEST(EdgeCasesDeathTest, EdgeSetSizeMismatchChecked) {
  EdgeSet a(3);
  EdgeSet b(4);
  EXPECT_DEATH({ a |= b; }, "edge_count");
}

TEST(EdgeCasesDeathTest, RecordedScheduleValidatesEdgeCounts) {
  EXPECT_DEATH(
      {
        RecordedSchedule s(Ring(4), {EdgeSet::all(5)});
        (void)s;
      },
      "edge_count");
}

TEST(EdgeCasesDeathTest, ConfinementWindowMustFitInsideRing) {
  const Ring ring(4);
  EXPECT_DEATH(
      { ConfinementAdversary cage(ring, 0, 4); (void)cage; },
      "width < ring");
}

TEST(EdgeCasesTest, MinimalRunsWork) {
  // 1 round, 1 robot, smallest ring.
  const Ring ring(2);
  Simulator sim(ring, make_algorithm("pef1"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  const RoundRecord rec = sim.step();
  EXPECT_EQ(rec.time, 0u);
  EXPECT_TRUE(rec.robots[0].moved);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_EQ(coverage.visited_node_count, 2u);
}

TEST(EdgeCasesTest, ZeroLengthTraceAnalyses) {
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, 3));
  // No rounds executed: coverage sees only initial positions, towers none.
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_EQ(coverage.visited_node_count, 3u);
  EXPECT_EQ(coverage.horizon, 0u);
  const auto towers = analyze_towers(sim.trace());
  EXPECT_TRUE(towers.towers.empty());
  EXPECT_TRUE(towers.lemma_3_3_holds);
  EXPECT_TRUE(towers.lemma_3_4_holds);
}

TEST(EdgeCasesTest, EmptyEdgeRoundsStallEverything) {
  const Ring ring(5);
  auto none = std::make_shared<RecordedSchedule>(
      ring, std::vector<EdgeSet>(30, EdgeSet::none(5)),
      TailRule::kRepeatLast);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(none),
                spread_placements(ring, 3));
  sim.run(30);
  for (RobotId r = 0; r < 3; ++r) {
    EXPECT_EQ(sim.trace().position_at(r, 30),
              sim.trace().position_at(r, 0));
  }
}

TEST(EdgeCasesTest, LargeRingSmokeTest) {
  const Ring ring(512);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, 3));
  sim.run(1200);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_EQ(coverage.visited_node_count, 512u);
}

TEST(EdgeCasesTest, ManyRobotsSmokeTest) {
  const Ring ring(64);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<BernoulliSchedule>(ring, 0.5,
                                                                   3)),
                spread_placements(ring, 63));
  sim.run(500);
  EXPECT_TRUE(analyze_towers(sim.trace()).lemma_3_4_holds);
}

TEST(EdgeCasesTest, TraceBoundsChecked) {
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, 2));
  sim.run(5);
  EXPECT_EQ(sim.trace().length(), 5u);
  EXPECT_NO_FATAL_FAILURE((void)sim.trace().position_at(1, 5));
  EXPECT_DEATH((void)sim.trace().position_at(1, 6), "t <= length");
  EXPECT_DEATH((void)sim.trace().position_at(2, 3), "robot_count");
}

}  // namespace
}  // namespace pef
