// Tests for the baseline algorithms and the registry — including the
// characteristic *failures* that motivate the paper's rules.  The
// compute-level cases drive each baseline's kernel on hand-picked views
// (kernel_robot.hpp).
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/schedules.hpp"
#include "kernel_robot.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(RegistryTest, AllNamesConstruct) {
  for (const std::string& name : algorithm_names()) {
    const AlgorithmPtr algo = make_algorithm(name, 7);
    ASSERT_NE(algo, nullptr) << name;
    // The display name is the registry name, except oscillating's, which
    // carries its period into run results.
    EXPECT_EQ(algo->name(), name == "oscillating" ? "oscillating(4)" : name);
    EXPECT_EQ(to_string(algo->kernel().id), name);
  }
  // Only random-walk draws on the seed; every other kernel ignores it.
  EXPECT_EQ(make_algorithm("random-walk", 7)->kernel().seed, 7u);
  EXPECT_EQ(make_algorithm("pef3+", 7)->kernel().seed, 0u);
  EXPECT_EQ(make_algorithm("oscillating")->kernel().period, 4u);
}

TEST(RegistryTest, DeterministicListExcludesRandomWalk) {
  for (const std::string& name : deterministic_algorithm_names()) {
    EXPECT_NE(name, "random-walk");
  }
  // Every other registry entry, in registry order.
  std::vector<std::string> expected = algorithm_names();
  std::erase(expected, "random-walk");
  EXPECT_EQ(deterministic_algorithm_names(), expected);
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH({ auto a = make_algorithm("no-such-algo"); (void)a; },
               "unknown algorithm");
}

TEST(KeepDirectionTest, NeverChangesDirection) {
  KernelRobot robot(*make_algorithm("keep-direction"));
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
    Simulator sim(ring, make_algorithm("keep-direction"),
                  make_oblivious(std::make_shared<StaticSchedule>(ring)),
                  spread_placements(ring, 3));
    sim.run(200);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(6));
  }
  {
    // One eventual missing edge starves it: every robot eventually camps.
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), 0, 8);
    Simulator sim(ring, make_algorithm("keep-direction"),
                  make_oblivious(schedule), spread_placements(ring, 3));
    sim.run(600);
    EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(6));
  }
}

TEST(BounceTest, TurnsOnlyWhenBlockedAndOtherSideOpen) {
  KernelRobot robot(*make_algorithm("bounce"));
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
  Simulator sim(ring, make_algorithm("bounce"),
                make_oblivious(schedule), {{0, Chirality(true)}});
  sim.run(400);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(5));
}

TEST(RandomWalkTest, PerRobotStreamsDiffer) {
  const AlgorithmPtr algo = make_algorithm("random-walk", 42);
  KernelRobot robot0(*algo, 0);
  KernelRobot robot1(*algo, 1);
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
  Simulator sim(ring, make_algorithm("random-walk", 9),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  sim.run(5000);
  EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 6u);
}

TEST(OscillatingTest, TurnsEveryPeriod) {
  const Algorithm algo("oscillating(3)",
                       KernelSpec{KernelId::kOscillating, 0, 3});
  KernelRobot robot(algo);
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
  Simulator sim(ring, make_algorithm("oscillating"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  sim.run(1000);
  EXPECT_LT(analyze_coverage(sim.trace()).visited_node_count, 12u);
}

}  // namespace
}  // namespace pef
