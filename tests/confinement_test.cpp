// Unit tests for the adaptive cage (ConfinementAdversary).
#include "adversary/confinement.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(ConfinementTest, WindowGeometry) {
  const Ring ring(8);
  ConfinementAdversary cage(ring, /*anchor=*/2, /*width=*/3);
  EXPECT_TRUE(cage.in_window(2));
  EXPECT_TRUE(cage.in_window(3));
  EXPECT_TRUE(cage.in_window(4));
  EXPECT_FALSE(cage.in_window(5));
  EXPECT_FALSE(cage.in_window(1));
  EXPECT_EQ(cage.left_boundary_edge(), 1u);   // edge (1,2)
  EXPECT_EQ(cage.right_boundary_edge(), 4u);  // edge (4,5)
}

TEST(ConfinementTest, WindowWrapsAroundZero) {
  const Ring ring(6);
  ConfinementAdversary cage(ring, /*anchor=*/5, /*width=*/2);
  EXPECT_TRUE(cage.in_window(5));
  EXPECT_TRUE(cage.in_window(0));
  EXPECT_FALSE(cage.in_window(1));
  EXPECT_EQ(cage.left_boundary_edge(), 4u);
  EXPECT_EQ(cage.right_boundary_edge(), 0u);
}

TEST(ConfinementTest, RemovesBoundaryOnlyWhenOccupied) {
  const Ring ring(8);
  ConfinementAdversary cage(ring, 2, 3);
  std::vector<RobotSnapshot> snaps(1);
  snaps[0].node = 3;  // mid-window
  const EdgeSet mid = cage.choose_edges(0, Configuration(ring, snaps));
  EXPECT_TRUE(mid.full());

  snaps[0].node = 2;  // left boundary node
  const EdgeSet left = cage.choose_edges(1, Configuration(ring, snaps));
  EXPECT_FALSE(left.contains(1));
  EXPECT_EQ(left.size(), 7u);

  snaps[0].node = 4;  // right boundary node
  const EdgeSet right = cage.choose_edges(2, Configuration(ring, snaps));
  EXPECT_FALSE(right.contains(4));
  EXPECT_EQ(right.size(), 7u);
}

TEST(ConfinementTest, EveryDeterministicAlgorithmStaysCaged) {
  // One robot, window of 2 on an 8-ring: nobody escapes and nobody visits
  // more than 2 nodes — the executable content of Theorem 5.1.
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(8);
    Simulator sim(ring, make_algorithm(name),
                  std::make_unique<ConfinementAdversary>(ring, 3, 2),
                  {{3, Chirality(true)}});
    sim.run(500);
    const auto coverage = analyze_coverage(sim.trace());
    EXPECT_LE(coverage.visited_node_count, 2u) << name;
  }
}

TEST(ConfinementTest, TwoRobotsStayCagedInWindowOfThree) {
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(9);
    Simulator sim(ring, make_algorithm(name),
                  std::make_unique<ConfinementAdversary>(ring, 4, 3),
                  {{4, Chirality(true)}, {5, Chirality(true)}});
    sim.run(500);
    const auto coverage = analyze_coverage(sim.trace());
    EXPECT_LE(coverage.visited_node_count, 3u) << name;
  }
}

TEST(ConfinementTest, CageIsLegalAgainstMovers) {
  // Against the bounce baseline the robot keeps shuttling, so every absence
  // interval closes: the realized prefix is connected-over-time.
  const Ring ring(8);
  Simulator sim(ring, make_algorithm("bounce"),
                std::make_unique<ConfinementAdversary>(ring, 3, 2),
                {{3, Chirality(true)}});
  sim.run(1000);
  const auto audit = audit_connectivity(sim.trace(), /*patience=*/250);
  EXPECT_TRUE(audit.connected_over_time);
}

TEST(ConfinementTest, RandomWalkAlsoCaged) {
  const Ring ring(10);
  Simulator sim(ring, make_algorithm("random-walk", 5),
                std::make_unique<ConfinementAdversary>(ring, 2, 3),
                {{2, Chirality(true)}, {4, Chirality(false)}});
  sim.run(2000);
  EXPECT_LE(analyze_coverage(sim.trace()).visited_node_count, 3u);
}

}  // namespace
}  // namespace pef
