// Unit tests for tower detection and the Lemma 3.3 / 3.4 checks.
#include "analysis/towers.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(TowersTest, NoTowerOnLoneRobot) {
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)}});
  sim.run(50);
  const auto report = analyze_towers(sim.trace());
  EXPECT_TRUE(report.towers.empty());
  EXPECT_EQ(report.tower_formation_count, 0u);
  EXPECT_TRUE(report.lemma_3_3_holds);
  EXPECT_TRUE(report.lemma_3_4_holds);
}

TEST(TowersTest, HeadOnMeetingFormsTower) {
  const Ring ring(4);
  // r0 at 2 going ccw, r1 at 0 going cw: they meet on node 1 after 1 round
  // and, with KeepDirection, walk together... no: opposite global dirs, so
  // they separate immediately after 1 config time together.
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{2, Chirality(true)}, {0, Chirality(false)}});
  sim.run(4);
  const auto report = analyze_towers(sim.trace());
  ASSERT_GE(report.towers.size(), 1u);
  EXPECT_EQ(report.towers[0].node, 1u);
  EXPECT_EQ(report.towers[0].start, 1u);
  EXPECT_EQ(report.towers[0].size(), 2u);
  EXPECT_TRUE(report.lemma_3_4_holds);
  // KeepDirection robots with opposite considered directions satisfy the
  // Lemma 3.3 condition trivially.
  EXPECT_TRUE(report.lemma_3_3_holds);
}

TEST(TowersTest, ChasingRobotsTravelTogetherAndViolateLemma33) {
  const Ring ring(6);
  // Both robots move ccw; block the leader until the chaser catches up,
  // then they travel together forever: a long-lived tower with EQUAL global
  // directions -> Lemma 3.3 must be reported as violated (KeepDirection is
  // not PEF_3+).
  auto base = std::make_shared<StaticSchedule>(ring);
  // r0 at node 2, its ccw edge is edge 1: block edge 1 for 2 rounds.
  auto schedule = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{1, 0, 1}});
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(schedule),
                {{2, Chirality(true)}, {4, Chirality(true)}});
  sim.run(20);
  const auto report = analyze_towers(sim.trace());
  ASSERT_GE(report.towers.size(), 1u);
  EXPECT_FALSE(report.lemma_3_3_holds);
  EXPECT_GT(report.max_tower_duration, 10u);
}

TEST(TowersTest, ThreeRobotPileViolatesLemma34) {
  const Ring ring(5);
  // Three KeepDirection robots all moving ccw; wall them so they pile onto
  // node 0: block node 0's ccw edge (edge 4) forever.
  auto base = std::make_shared<StaticSchedule>(ring);
  auto schedule = std::make_shared<SurgerySchedule>(
      base, std::vector<Removal>{{4, 0, kTimeInfinity}});
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(schedule),
                {{0, Chirality(true)},
                 {1, Chirality(true)},
                 {2, Chirality(true)}});
  sim.run(10);
  const auto report = analyze_towers(sim.trace());
  EXPECT_FALSE(report.lemma_3_4_holds);
  EXPECT_EQ(report.max_tower_size, 3u);
}

TEST(TowersTest, TowerIntervalsAreMaximal) {
  const Ring ring(4);
  // Meet at node 1 (see HeadOnMeetingFormsTower) and separate next round.
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{2, Chirality(true)}, {0, Chirality(false)}});
  sim.run(6);
  const auto report = analyze_towers(sim.trace());
  for (const auto& tower : report.towers) {
    EXPECT_GE(tower.duration(), 1u);
    EXPECT_LE(tower.start, tower.end);
  }
}

TEST(TowersTest, Pef3PlusBreaksTowersQuickly) {
  const Ring ring(8);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 3, 10);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(500);
  const auto report = analyze_towers(sim.trace());
  EXPECT_GT(report.tower_formation_count, 3u);
  // With every edge but the missing one always present, a PEF_3+ tower
  // breaks within one round of forming.
  EXPECT_LE(report.max_tower_duration, 2u);
  EXPECT_TRUE(report.lemma_3_3_holds);
  EXPECT_TRUE(report.lemma_3_4_holds);
}

}  // namespace
}  // namespace pef
