// Unit tests for sentinel analysis (Lemma 3.7 reporting).
#include "analysis/sentinels.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(SentinelsTest, NoSentinelsOnStaticRing) {
  const Ring ring(6);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, 3));
  sim.run(300);
  // No missing edge: robots keep circulating; no extremity is permanently
  // guarded.
  const auto report = analyze_sentinels(sim.trace(), 2);
  EXPECT_FALSE(report.sentinels_formed());
}

TEST(SentinelsTest, Pef3PlusPostsTwoSentinels) {
  const Ring ring(7);
  const EdgeId missing = 4;
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, 12);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(700);
  const auto report = analyze_sentinels(sim.trace(), missing);
  ASSERT_TRUE(report.sentinels_formed());
  EXPECT_GE(*report.formation_time, 12u);  // cannot guard a live edge
  EXPECT_EQ(report.sentinels_at_horizon.size(), 2u);
  EXPECT_EQ(report.explorers_at_horizon.size(), 1u);
  // Sentinels and explorers are disjoint role sets here.
  for (RobotId s : report.sentinels_at_horizon) {
    for (RobotId e : report.explorers_at_horizon) {
      EXPECT_NE(s, e);
    }
  }
}

TEST(SentinelsTest, KeepDirectionCampsButBothOnExtremities) {
  // KeepDirection robots also end up stuck at extremities (they camp), so
  // extremity-guarding alone cannot distinguish them — coverage does: with
  // PEF_3+ exploration continues, with KeepDirection it stops.
  const Ring ring(6);
  const EdgeId missing = 2;
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, 6);

  Simulator keep(ring, make_algorithm("keep-direction"),
                 make_oblivious(schedule), spread_placements(ring, 3));
  keep.run(400);
  EXPECT_FALSE(analyze_coverage(keep.trace()).perpetual(6));

  Simulator pef(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  pef.run(400);
  EXPECT_TRUE(analyze_coverage(pef.trace()).perpetual(6));
}

TEST(SentinelsTest, FormationTimeIsSuffixStart) {
  const Ring ring(5);
  const EdgeId missing = 1;
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, 8);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(500);
  const auto report = analyze_sentinels(sim.trace(), missing);
  ASSERT_TRUE(report.sentinels_formed());
  // From the formation time to the horizon both extremities stay guarded:
  // re-running the check on a later suffix must agree.
  EXPECT_LT(*report.formation_time, 500u);
}

}  // namespace
}  // namespace pef
