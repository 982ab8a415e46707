// Unit tests for the FSYNC execution engine.
#include "oracles/simulators.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "dynamic_graph/schedules.hpp"

namespace pef {
namespace {

AdversaryPtr static_adversary(const Ring& ring) {
  return make_oblivious(std::make_shared<StaticSchedule>(ring));
}

TEST(SimulatorTest, InitialDirIsLeftAndLeftIsCcw) {
  // Paper: dir starts at `left`; with right_is_clockwise chirality a robot
  // therefore initially considers the counter-clockwise global direction.
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring), {{0, Chirality(true)}});
  EXPECT_EQ(sim.robot(0).dir(), LocalDirection::kLeft);
  EXPECT_EQ(sim.robot(0).considered_direction(),
            GlobalDirection::kCounterClockwise);
  sim.step();
  EXPECT_EQ(sim.robot(0).node(), 3u);
  sim.step();
  EXPECT_EQ(sim.robot(0).node(), 2u);
}

TEST(SimulatorTest, FlippedChiralityMovesClockwise) {
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring), {{0, Chirality(false)}});
  sim.step();
  EXPECT_EQ(sim.robot(0).node(), 1u);
}

TEST(SimulatorTest, MissingEdgeBlocksMove) {
  const Ring ring(4);
  // Robot at node 0 moving ccw needs edge 3; remove it for 5 rounds.
  auto base = std::make_shared<StaticSchedule>(ring);
  auto schedule = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{3, 0, 4}});
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(schedule), {{0, Chirality(true)}});
  for (int i = 0; i < 5; ++i) {
    const RoundRecord rec = sim.step();
    EXPECT_FALSE(rec.robots[0].moved);
    EXPECT_EQ(sim.robot(0).node(), 0u);
  }
  const RoundRecord rec = sim.step();
  EXPECT_TRUE(rec.robots[0].moved);
  EXPECT_EQ(sim.robot(0).node(), 3u);
}

TEST(SimulatorTest, RoundRecordsCapturePhases) {
  const Ring ring(5);
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring), {{2, Chirality(true)}});
  const RoundRecord rec = sim.step();
  EXPECT_EQ(rec.time, 0u);
  EXPECT_TRUE(rec.edges.full());
  EXPECT_EQ(rec.robots[0].node_before, 2u);
  EXPECT_EQ(rec.robots[0].node_after, 1u);
  EXPECT_EQ(rec.robots[0].dir_before, LocalDirection::kLeft);
  EXPECT_EQ(rec.robots[0].dir_after, LocalDirection::kLeft);
  EXPECT_FALSE(rec.robots[0].saw_other_robots);
}

TEST(SimulatorTest, MultiplicityDetection) {
  const Ring ring(4);
  // Two robots converging on the same node see each other next round.
  // r0 at node 2 (ccw -> 1), r1 at node 0 (cw via flipped chirality -> 1).
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring),
                {{2, Chirality(true)}, {0, Chirality(false)}});
  RoundRecord rec = sim.step();
  EXPECT_EQ(sim.robot(0).node(), 1u);
  EXPECT_EQ(sim.robot(1).node(), 1u);
  EXPECT_FALSE(rec.robots[0].saw_other_robots);  // not colocated during Look
  rec = sim.step();
  EXPECT_TRUE(rec.robots[0].saw_other_robots);
  EXPECT_TRUE(rec.robots[1].saw_other_robots);
}

TEST(SimulatorTest, TraceAccumulatesAndPositionsAt) {
  const Ring ring(6);
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring), {{5, Chirality(true)}});
  sim.run(4);
  const Trace& trace = sim.trace();
  EXPECT_EQ(trace.length(), 4u);
  EXPECT_EQ(trace.position_at(0, 0), 5u);
  EXPECT_EQ(trace.position_at(0, 1), 4u);
  EXPECT_EQ(trace.position_at(0, 4), 1u);
  EXPECT_EQ(trace.edge_history().size(), 4u);
}

TEST(SimulatorTest, TwoNodeRingShuttle) {
  const Ring ring(2);
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring), {{0, Chirality(true)}});
  // On the 2-node multigraph every move lands on the other node.
  NodeId expected = 0;
  for (int i = 0; i < 6; ++i) {
    sim.step();
    expected = expected == 0 ? 1 : 0;
    EXPECT_EQ(sim.robot(0).node(), expected);
  }
}

TEST(SimulatorTest, SpreadPlacementsAreTowerless) {
  for (std::uint32_t n : {4u, 5u, 9u, 16u}) {
    for (std::uint32_t k = 1; k < n; ++k) {
      const auto placements = spread_placements(Ring(n), k);
      ASSERT_EQ(placements.size(), k);
      for (std::size_t a = 0; a < placements.size(); ++a) {
        EXPECT_LT(placements[a].node, n);
        for (std::size_t b = a + 1; b < placements.size(); ++b) {
          EXPECT_NE(placements[a].node, placements[b].node)
              << "n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(SimulatorDeathTest, RejectsTowerInitialConfiguration) {
  const Ring ring(4);
  EXPECT_DEATH(
      {
        Simulator sim(ring, make_algorithm("keep-direction"),
                      static_adversary(ring),
                      {{1, Chirality(true)}, {1, Chirality(true)}});
      },
      "towerless");
}

TEST(SimulatorDeathTest, RejectsTooManyRobots) {
  const Ring ring(3);
  EXPECT_DEATH(
      {
        Simulator sim(ring, make_algorithm("keep-direction"),
                      static_adversary(ring),
                      {{0, Chirality(true)},
                       {1, Chirality(true)},
                       {2, Chirality(true)}});
      },
      "k < n");
}

TEST(SimulatorTest, SynchronousSwapDoesNotCollide) {
  // Two adjacent robots moving toward each other swap positions through the
  // same edge without meeting (moves are simultaneous).
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("keep-direction"),
                static_adversary(ring),
                {{0, Chirality(false)}, {1, Chirality(true)}});
  // r0 at 0 moves cw to 1; r1 at 1 moves ccw to 0.
  sim.step();
  EXPECT_EQ(sim.robot(0).node(), 1u);
  EXPECT_EQ(sim.robot(1).node(), 0u);
}

}  // namespace
}  // namespace pef
