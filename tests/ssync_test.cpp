// Tests for the SSYNC extension (the [10] impossibility argument).
#include "scheduler/ssync.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(SsyncTest, FullActivationMatchesFsyncEngine) {
  // With everyone activated every round, the SSYNC engine must reproduce
  // the FSYNC engine exactly — a cross-check of the two implementations.
  const Ring ring(7);
  auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.6, 77);
  const auto placements = spread_placements(ring, 3);

  Simulator fsync(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  placements);
  SsyncSimulator ssync(ring, make_algorithm("pef3+"),
                       std::make_unique<SsyncFromFsyncAdversary>(
                           make_oblivious(schedule)),
                       ActivationRule::full(), placements);
  fsync.run(300);
  ssync.run(300);
  for (RobotId r = 0; r < 3; ++r) {
    for (Time t = 0; t <= 300; ++t) {
      ASSERT_EQ(fsync.trace().position_at(r, t),
                ssync.trace().position_at(r, t))
          << "r=" << r << " t=" << t;
    }
  }
}

TEST(SsyncTest, BlockerFreezesEveryAlgorithm) {
  // Round-robin activation + both-adjacent-edges removal: no robot ever
  // moves, for any algorithm — the executable content of the SSYNC
  // impossibility of [10].
  for (const std::string& name : algorithm_names()) {
    const Ring ring(6);
    SsyncSimulator sim(ring, make_algorithm(name, 3),
                       std::make_unique<SsyncBlockingAdversary>(ring),
                       ActivationRule::round_robin(),
                       spread_placements(ring, 3));
    sim.run(600);
    for (RobotId r = 0; r < 3; ++r) {
      EXPECT_EQ(sim.trace().position_at(r, 600),
                sim.trace().position_at(r, 0))
          << name;
    }
    EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 3u) << name;
  }
}

TEST(SsyncTest, BlockerKeepsEveryEdgeRecurrent) {
  // The blocker's removals target only the activated robot's edges, so with
  // round-robin activation every edge is present at least whenever distant
  // robots are activated: the realized graph is connected-over-time.
  const Ring ring(6);
  SsyncSimulator sim(ring, make_algorithm("pef3+"),
                     std::make_unique<SsyncBlockingAdversary>(ring),
                     ActivationRule::round_robin(),
                     spread_placements(ring, 3));
  sim.run(600);
  const auto audit =
      audit_connectivity(ring, sim.trace().edge_history(), /*patience=*/150);
  EXPECT_TRUE(audit.connected_over_time);
  EXPECT_TRUE(audit.suspected_missing.empty());
}

TEST(SsyncTest, PefThreePlusSurvivesFairSsyncWithoutEdgeAdversary) {
  // With a benign static graph and random fair activation PEF_3+ still
  // explores — the impossibility needs the *edge* adversary, not mere
  // asynchrony of activation.
  const Ring ring(6);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  SsyncSimulator sim(ring, make_algorithm("pef3+"),
                     std::make_unique<SsyncFromFsyncAdversary>(
                         make_oblivious(schedule)),
                     ActivationRule::bernoulli(0.7, 11),
                     spread_placements(ring, 3));
  sim.run(2000);
  EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 6u);
}

}  // namespace
}  // namespace pef
