// Tests for the baseline algorithms and the registry — including the
// characteristic *failures* that motivate the paper's rules.  The
// compute-level cases drive each virtual baseline and its kernel on the
// same views (compute_twin.hpp).
#include "algorithms/baselines.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "compute_twin.hpp"
#include "dynamic_graph/schedules.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

TEST(RegistryTest, AllNamesConstruct) {
  for (const std::string& name : algorithm_names()) {
    const AlgorithmPtr algo = make_algorithm(name, 7);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_FALSE(algo->name().empty());
    auto state = algo->make_state(0);
    ASSERT_NE(state, nullptr);
    EXPECT_FALSE(state->to_string().empty());
  }
}

TEST(RegistryTest, DeterministicListExcludesRandomWalk) {
  for (const std::string& name : deterministic_algorithm_names()) {
    EXPECT_NE(name, "random-walk");
  }
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH({ auto a = make_algorithm("no-such-algo"); (void)a; },
               "unknown algorithm");
}

TEST(KeepDirectionTest, NeverChangesDirection) {
  const KeepDirection algo;
  ComputeTwin robot(algo);
  for (int ahead = 0; ahead < 2; ++ahead) {
    for (int behind = 0; behind < 2; ++behind) {
      for (int others = 0; others < 2; ++others) {
        View v;
        v.exists_edge_ahead = ahead != 0;
        v.exists_edge_behind = behind != 0;
        v.other_robots_on_node = others != 0;
        EXPECT_EQ(robot.compute(v), LocalDirection::kLeft);
      }
    }
  }
}

TEST(KeepDirectionTest, ExploresStaticButNotEventualMissing) {
  const Ring ring(6);
  {
    Simulator sim(ring, std::make_shared<KeepDirection>(),
                  make_oblivious(std::make_shared<StaticSchedule>(ring)),
                  spread_placements(ring, 3));
    sim.run(200);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(6));
  }
  {
    // One eventual missing edge starves it: every robot eventually camps.
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), 0, 8);
    Simulator sim(ring, std::make_shared<KeepDirection>(),
                  make_oblivious(schedule), spread_placements(ring, 3));
    sim.run(600);
    EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(6));
  }
}

TEST(BounceTest, TurnsOnlyWhenBlockedAndOtherSideOpen) {
  const BounceOnMissing algo;
  ComputeTwin robot(algo);
  View v;
  v.exists_edge_ahead = false;
  v.exists_edge_behind = false;
  EXPECT_EQ(robot.compute(v), LocalDirection::kLeft);  // nowhere to go: keep
  v.exists_edge_behind = true;
  EXPECT_EQ(robot.compute(v), LocalDirection::kRight);  // bounce
}

TEST(BounceTest, LivelocksAcrossEventualMissingEdgeWithOneRobot) {
  // A single bouncing robot on a ring with an eventual missing edge patrols
  // the chain endlessly — it explores a *chain*, which is exactly why one
  // robot fails only on rings of size > 2 via the adaptive adversary, not
  // via a single missing edge.
  const Ring ring(5);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 2, 4);
  Simulator sim(ring, std::make_shared<BounceOnMissing>(),
                make_oblivious(schedule), {{0, Chirality(true)}});
  sim.run(400);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(5));
}

TEST(RandomWalkTest, PerRobotStreamsDiffer) {
  const RandomWalk algo(42);
  ComputeTwin robot0(algo, 0);
  ComputeTwin robot1(algo, 1);
  // Feed both the same views; their decisions must diverge eventually.
  View v;
  v.exists_edge_ahead = true;
  v.exists_edge_behind = true;
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    diverged = robot0.compute(v) != robot1.compute(v);
  }
  EXPECT_TRUE(diverged);
}

TEST(RandomWalkTest, EventuallyCoversStaticRing) {
  const Ring ring(6);
  Simulator sim(ring, std::make_shared<RandomWalk>(9),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  sim.run(5000);
  EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 6u);
}

TEST(OscillatingTest, TurnsEveryPeriod) {
  const Oscillating algo(3);
  ComputeTwin robot(algo);
  View v;
  v.exists_edge_ahead = true;
  v.exists_edge_behind = true;
  EXPECT_EQ(robot.compute(v), LocalDirection::kLeft);
  EXPECT_EQ(robot.compute(v), LocalDirection::kLeft);
  EXPECT_EQ(robot.compute(v), LocalDirection::kRight);  // 3rd call turns
  EXPECT_EQ(robot.compute(v), LocalDirection::kRight);
}

TEST(OscillatingTest, PatrolsOnlyASegmentOfBigRings) {
  // Period-4 oscillation confines a lone robot to a small arc: it cannot
  // explore a 12-ring even with every edge present.
  const Ring ring(12);
  Simulator sim(ring, std::make_shared<Oscillating>(4),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  sim.run(1000);
  EXPECT_LT(analyze_coverage(sim.trace()).visited_node_count, 12u);
}

}  // namespace
}  // namespace pef
