// Unit tests for coverage analysis.
#include "analysis/coverage.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

Simulator single_walker(std::uint32_t n, SchedulePtr schedule) {
  return Simulator(Ring(n), make_algorithm("keep-direction"),
                   make_oblivious(std::move(schedule)),
                   {{0, Chirality(true)}});
}

TEST(CoverageTest, SingleLapCoversRing) {
  auto sim = single_walker(5, std::make_shared<StaticSchedule>(Ring(5)));
  sim.run(5);
  const auto report = analyze_coverage(sim.trace());
  EXPECT_EQ(report.visited_node_count, 5u);
  ASSERT_TRUE(report.cover_time.has_value());
  EXPECT_EQ(*report.cover_time, 4u);  // nodes 0,4,3,2,1 by config time 4
}

TEST(CoverageTest, VisitCountsAccumulate) {
  auto sim = single_walker(4, std::make_shared<StaticSchedule>(Ring(4)));
  sim.run(8);  // two laps
  const auto report = analyze_coverage(sim.trace());
  // Node 0: initial + after rounds 4 and 8 => 3 visits.
  EXPECT_EQ(report.visit_counts[0], 3u);
  EXPECT_EQ(report.visit_counts[1], 2u);
}

TEST(CoverageTest, MaxRevisitGapOnSteadyLap) {
  auto sim = single_walker(6, std::make_shared<StaticSchedule>(Ring(6)));
  sim.run(60);
  const auto report = analyze_coverage(sim.trace());
  EXPECT_EQ(report.max_closed_gap, 6u);
  EXPECT_LE(report.max_revisit_gap, 6u);
  EXPECT_TRUE(report.perpetual(6));
}

TEST(CoverageTest, StarvedNodeBreaksPerpetual) {
  // A robot blocked forever on its start node never visits the rest.
  auto base = std::make_shared<StaticSchedule>(Ring(4));
  auto blocked = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{0, 0, kTimeInfinity},
                                 {3, 0, kTimeInfinity}});
  auto sim = single_walker(4, blocked);
  sim.run(100);
  const auto report = analyze_coverage(sim.trace());
  EXPECT_EQ(report.visited_node_count, 1u);
  EXPECT_FALSE(report.cover_time.has_value());
  EXPECT_FALSE(report.perpetual(4));
  EXPECT_EQ(report.max_revisit_gap, 100u);  // the whole horizon
}

TEST(CoverageTest, SuffixWindowDetectsLateStarvation) {
  // Robot circles for a while, then gets walled into node 0 forever:
  // every node is *visited*, but not in the suffix.
  auto base = std::make_shared<StaticSchedule>(Ring(4));
  auto walled = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{0, 20, kTimeInfinity},
                                 {3, 20, kTimeInfinity}});
  auto sim = single_walker(4, walled);
  sim.run(400);
  const auto report = analyze_coverage(sim.trace(), /*suffix_window=*/100);
  EXPECT_EQ(report.visited_node_count, 4u);
  EXPECT_LT(report.nodes_visited_in_suffix, 4u);
  EXPECT_FALSE(report.perpetual(4));
}

TEST(CoverageTest, VisitTimesOfNode) {
  auto sim = single_walker(3, std::make_shared<StaticSchedule>(Ring(3)));
  sim.run(6);
  const auto times = visit_times(sim.trace(), 0);
  EXPECT_EQ(times, (std::vector<Time>{0, 3, 6}));
  const auto times2 = visit_times(sim.trace(), 2);
  EXPECT_EQ(times2, (std::vector<Time>{1, 4}));
}

TEST(CoverageTest, MultipleRobotsShareCoverage) {
  const Ring ring(8);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, 4));
  sim.run(2);  // one step suffices: 4 old + 4 new positions cover all 8
  const auto report = analyze_coverage(sim.trace());
  EXPECT_EQ(report.visited_node_count, 8u);
  EXPECT_EQ(*report.cover_time, 1u);
}

TEST(CoverageTest, DefaultSuffixWindowIsQuarter) {
  auto sim = single_walker(3, std::make_shared<StaticSchedule>(Ring(3)));
  sim.run(100);
  const auto report = analyze_coverage(sim.trace());
  EXPECT_EQ(report.suffix_window, 26u);
  EXPECT_EQ(report.horizon, 100u);
}

}  // namespace
}  // namespace pef
