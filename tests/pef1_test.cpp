// Tests for PEF_1 (Section 5.2): one robot on a 2-node
// connected-over-time ring (multigraph or chain).
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/schedules.hpp"
#include "kernel_robot.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

View make_view(bool ahead, bool behind) {
  View v;
  v.exists_edge_ahead = ahead;
  v.exists_edge_behind = behind;
  v.other_robots_on_node = false;
  return v;
}

TEST(Pef1ComputeTest, PointsToPresentEdge) {
  KernelRobot robot(*make_algorithm("pef1"));
  EXPECT_EQ(robot.compute(make_view(false, true)), LocalDirection::kRight);
}

TEST(Pef1ComputeTest, KeepsPointedPresentEdge) {
  KernelRobot robot(*make_algorithm("pef1"));
  EXPECT_EQ(robot.compute(make_view(true, true)), LocalDirection::kLeft);
  EXPECT_EQ(robot.compute(make_view(true, false)), LocalDirection::kLeft);
}

TEST(Pef1ComputeTest, KeepsDirectionWhenNothingPresent) {
  KernelRobot robot(*make_algorithm("pef1"), 0, LocalDirection::kRight);
  EXPECT_EQ(robot.compute(make_view(false, false)), LocalDirection::kRight);
}

// --- Behavioural tests (Theorem 5.2) --------------------------------------

Simulator make_sim(SchedulePtr schedule) {
  return Simulator(Ring(2), make_algorithm("pef1"),
                   make_oblivious(std::move(schedule)),
                   {{0, Chirality(true)}});
}

TEST(Pef1BehaviourTest, ShuttlesOnStaticMultigraph) {
  auto sim = make_sim(std::make_shared<StaticSchedule>(Ring(2)));
  sim.run(50);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(2));
  EXPECT_LE(coverage.max_revisit_gap, 2u);
}

TEST(Pef1BehaviourTest, WorksOnChain) {
  // A 2-node chain = 2-ring whose second parallel edge never appears.
  auto base = std::make_shared<StaticSchedule>(Ring(2));
  auto chain = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{1, 0, kTimeInfinity}});
  auto sim = make_sim(chain);
  sim.run(100);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(2));
}

TEST(Pef1BehaviourTest, WorksWhenEdgesFlicker) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto sim = make_sim(
        std::make_shared<BernoulliSchedule>(Ring(2), 0.3, seed));
    sim.run(2000);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(2))
        << "seed " << seed;
  }
}

TEST(Pef1BehaviourTest, AlternatingParallelEdges) {
  // Adversary alternates which parallel edge is present; the robot must
  // still cross every round it can.
  const Ring ring(2);
  std::vector<EdgeSet> rounds;
  for (Time t = 0; t < 40; ++t) {
    EdgeSet s(2);
    s.insert(static_cast<EdgeId>(t % 2));
    rounds.push_back(s);
  }
  auto sim = make_sim(std::make_shared<RecordedSchedule>(
      ring, rounds, TailRule::kCyclePrefix));
  sim.run(200);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(2));
  EXPECT_LE(coverage.max_revisit_gap, 3u);
}

TEST(Pef1BehaviourTest, LongBlackoutThenRecovers) {
  // Both edges absent for 100 rounds; the robot waits, then resumes.
  auto base = std::make_shared<StaticSchedule>(Ring(2));
  auto blackout = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{0, 10, 109}, {1, 10, 109}});
  auto sim = make_sim(blackout);
  sim.run(400);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(2));
  EXPECT_GE(coverage.max_closed_gap, 100u);  // the blackout shows up
}

class Pef1SweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(Pef1SweepTest, PerpetualOnRandomTwoRings) {
  const auto [seed, p] = GetParam();
  auto sim = make_sim(std::make_shared<BernoulliSchedule>(Ring(2), p, seed));
  sim.run(3000);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(2));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Pef1SweepTest,
    ::testing::Combine(::testing::Values(2ull, 33ull, 71ull, 1234ull),
                       ::testing::Values(0.1, 0.5, 0.95)));

}  // namespace
}  // namespace pef
