// Tests for the ASYNC extension: lockstep degeneration to FSYNC, view
// staleness, and the [10]-style impossibility under the Move blocker.
#include "scheduler/async.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/schedules.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

TEST(AsyncTest, LockstepOverStaticGraphIsFsyncAtThirdSpeed) {
  // With every robot advancing every tick over a static graph, phases stay
  // synchronised: positions after 3t async ticks equal FSYNC positions
  // after t rounds.
  const Ring ring(7);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  const auto placements = spread_placements(ring, 3);

  Simulator fsync(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  placements);
  AsyncSimulator async(ring, make_algorithm("pef3+"),
                       std::make_unique<SsyncFromFsyncAdversary>(
                           make_oblivious(schedule)),
                       ActivationRule::full(), placements);
  fsync.run(60);
  async.run(180);
  for (Time t = 0; t <= 60; ++t) {
    for (RobotId r = 0; r < 3; ++r) {
      ASSERT_EQ(fsync.trace().position_at(r, t),
                async.trace().position_at(r, 3 * t))
          << "r=" << r << " t=" << t;
    }
  }
}

TEST(AsyncTest, PhasesCycleLookComputeMove) {
  const Ring ring(4);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  AsyncSimulator async(ring, make_algorithm("keep-direction"),
                       std::make_unique<SsyncFromFsyncAdversary>(
                           make_oblivious(schedule)),
                       ActivationRule::full(),
                       {{0, Chirality(true)}});
  EXPECT_EQ(async.phase_of(0), Phase::kLook);
  async.step();
  EXPECT_EQ(async.phase_of(0), Phase::kCompute);
  async.step();
  EXPECT_EQ(async.phase_of(0), Phase::kMove);
  async.step();
  EXPECT_EQ(async.phase_of(0), Phase::kLook);
  // One full cycle == one move for an unobstructed keep-direction walker.
  EXPECT_EQ(async.trace().position_at(0, 3), 3u);
}

TEST(AsyncTest, StaleViewMakesRobotChaseVanishedEdge) {
  // The ASYNC hazard in isolation: the edge present at Look time is gone
  // by Move time, so the robot stalls even though its (stale) view said
  // the way was clear — and a fresher robot would have turned.
  const Ring ring(5);
  // Robot at node 2 pointing ccw (edge 1).  Edge 1 present only at tick 0
  // (Look), absent from tick 1 on; edge 2 always present.
  std::vector<EdgeSet> rounds;
  for (Time t = 0; t < 12; ++t) {
    EdgeSet s = EdgeSet::all(5);
    if (t >= 1) s.erase(1);
    rounds.push_back(s);
  }
  auto schedule = std::make_shared<RecordedSchedule>(ring, rounds,
                                                     TailRule::kRepeatLast);
  AsyncSimulator async(ring, make_algorithm("bounce"),
                       std::make_unique<SsyncFromFsyncAdversary>(
                           make_oblivious(schedule)),
                       ActivationRule::full(),
                       {{2, Chirality(true)}});
  // Look at t=0 sees edge 1 present -> bounce keeps pointing at it.
  // Move at t=2 finds it gone: no movement, although behind was open.
  async.run(3);
  EXPECT_EQ(async.trace().position_at(0, 3), 2u);
  // The NEXT cycle's Look sees the truth and bounce turns back.
  async.run(3);
  EXPECT_EQ(async.trace().position_at(0, 6), 3u);
}

TEST(AsyncTest, MoveBlockerFreezesEveryAlgorithm) {
  for (const std::string& name : algorithm_names()) {
    const Ring ring(6);
    AsyncSimulator async(ring, make_algorithm(name, 7),
                         std::make_unique<AsyncMoveBlocker>(ring),
                         ActivationRule::round_robin(),
                         spread_placements(ring, 3));
    async.run(900);
    for (RobotId r = 0; r < 3; ++r) {
      EXPECT_EQ(async.trace().position_at(r, 900),
                async.trace().position_at(r, 0))
          << name;
    }
    EXPECT_EQ(analyze_coverage(async.trace()).visited_node_count, 3u)
        << name;
  }
}

TEST(AsyncTest, MoveBlockerKeepsEdgesRecurrent) {
  const Ring ring(6);
  AsyncSimulator async(ring, make_algorithm("pef3+"),
                       std::make_unique<AsyncMoveBlocker>(ring),
                       ActivationRule::round_robin(),
                       spread_placements(ring, 3));
  async.run(900);
  const auto audit =
      audit_connectivity(ring, async.trace().edge_history(), 200);
  EXPECT_TRUE(audit.connected_over_time);
  EXPECT_TRUE(audit.suspected_missing.empty());
}

TEST(AsyncTest, BenignAsyncStillExplores) {
  // Random fair phase scheduling over a static graph: PEF_3+ keeps
  // exploring (asynchrony alone is survivable when robots never meet;
  // the impossibility needs the edge adversary).
  const Ring ring(6);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  AsyncSimulator async(ring, make_algorithm("pef3+"),
                       std::make_unique<SsyncFromFsyncAdversary>(
                           make_oblivious(schedule)),
                       ActivationRule::bernoulli(0.6, 9),
                       spread_placements(ring, 3));
  async.run(4000);
  EXPECT_EQ(analyze_coverage(async.trace()).visited_node_count, 6u);
}

}  // namespace
}  // namespace pef
