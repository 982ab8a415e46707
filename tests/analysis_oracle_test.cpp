// The one-pass trace analyses against their reference forms
// (tests/oracles/analysis.hpp): every TowerEvent in order, the lemma flags,
// the connectivity audit at several patiences and every absence interval,
// on traced Engine runs and on hand-built traces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/towers.hpp"
#include "core/spec.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"
#include "oracles/analysis.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

void expect_same_towers(const TowerReport& got, const TowerReport& want,
                        const std::string& what) {
  ASSERT_EQ(got.towers.size(), want.towers.size()) << what;
  for (std::size_t i = 0; i < want.towers.size(); ++i) {
    const TowerEvent& a = got.towers[i];
    const TowerEvent& b = want.towers[i];
    EXPECT_EQ(a.node, b.node) << what << " tower " << i;
    EXPECT_EQ(a.start, b.start) << what << " tower " << i;
    EXPECT_EQ(a.end, b.end) << what << " tower " << i;
    EXPECT_EQ(a.robots, b.robots) << what << " tower " << i;
  }
  EXPECT_EQ(got.max_tower_size, want.max_tower_size) << what;
  EXPECT_EQ(got.max_tower_duration, want.max_tower_duration) << what;
  EXPECT_EQ(got.tower_formation_count, want.tower_formation_count) << what;
  EXPECT_EQ(got.lemma_3_4_holds, want.lemma_3_4_holds) << what;
  EXPECT_EQ(got.lemma_3_3_holds, want.lemma_3_3_holds) << what;
}

void expect_same_audit(const ConnectivityAudit& got,
                       const ConnectivityAudit& want,
                       const std::string& what) {
  EXPECT_EQ(got.suspected_missing, want.suspected_missing) << what;
  EXPECT_EQ(got.max_closed_absence, want.max_closed_absence) << what;
  EXPECT_EQ(got.connected_over_time, want.connected_over_time) << what;
}

/// Every analysis of `trace` against its reference: towers, the audit from
/// the trace, from its edge rows and from a schedule replaying them, at
/// patiences from 0 to past the horizon, and the absence intervals.
void expect_matches_reference(const Trace& trace, const std::string& what) {
  expect_same_towers(analyze_towers(trace), reference_analyze_towers(trace),
                     what);

  const Ring& ring = trace.ring();
  const Time horizon = trace.length();
  const std::vector<EdgeSet> rows = reference_edge_rows(trace);
  const RecordedSchedule replay(ring, rows);
  for (const Time patience :
       {Time{0}, Time{1}, horizon / 4, horizon, horizon + 1,
        3 * horizon + 7}) {
    const std::string at = what + " patience=" + std::to_string(patience);
    const ConnectivityAudit want =
        reference_audit_connectivity(ring, rows, patience);
    expect_same_audit(audit_connectivity(trace, patience), want, at);
    expect_same_audit(audit_connectivity(ring, rows, patience), want, at);
    expect_same_audit(audit_connectivity(replay, horizon, patience), want,
                      at);
  }
  EXPECT_EQ(absence_intervals(replay, horizon),
            reference_absence_intervals(ring, rows))
      << what;
}

TEST(AnalysisOracleTest, TracedRunsMatchReference) {
  const std::vector<AdversaryConfig> adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kPeriodic, {{"period", 5}, {"duty", 3}}),
      adversary_config(AdversaryKind::kTInterval, {{"interval", 4}}),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.4}}),
      adversary_config(AdversaryKind::kMarkov,
                       {{"p_fail", 0.3}, {"p_recover", 0.2}}),
      adversary_config(AdversaryKind::kBoundedAbsence),
      adversary_config(AdversaryKind::kGreedyBlocker),
      adversary_config(AdversaryKind::kEventualMissing),
  };
  const Time horizons[] = {0, 1, 2, 17, 64, 300, 2500};
  std::uint32_t runs = 0;
  std::size_t tower_events = 0;
  for (const std::uint32_t n : {2u, 3u, 63u, 64u, 65u, 130u}) {
    const std::vector<std::string> algorithms =
        n == 2   ? std::vector<std::string>{"pef1", "random-walk"}
        : n == 3 ? std::vector<std::string>{"pef2", "bounce"}
                 : std::vector<std::string>{"pef3+", "keep-direction",
                                            "oscillating"};
    for (const AdversaryConfig& adversary : adversaries) {
      for (const ExecutionModel model :
           {ExecutionModel::kFsync, ExecutionModel::kSsync,
            ExecutionModel::kAsync}) {
        for (const std::string& algorithm : algorithms) {
          const std::uint64_t seed = 1 + runs;
          const std::uint32_t k = n == 2 ? 1 : n == 3 ? 2 : 3 + 2 * (runs % 2);
          const Time horizon = horizons[runs % std::size(horizons)];
          ScenarioSpec spec;
          spec.nodes = n;
          spec.robots = k;
          spec.algorithm = algorithm;
          spec.adversary = adversary;
          spec.model = model;
          ASSERT_FALSE(spec.validate().has_value()) << *spec.validate();

          const Ring ring(n);
          EngineOptions options;
          options.record_trace = true;
          Engine engine = make_standard_engine(
              ring, model, make_algorithm(algorithm, seed),
              adversary_from_config(adversary, ring, seed, k), 0.5, seed,
              (runs / 2) % 2 == 0 ? spread_placements(ring, k)
                                  : random_placements(ring, k, seed),
              options);
          engine.run(horizon);
          tower_events += analyze_towers(engine.trace()).towers.size();
          expect_matches_reference(
              engine.trace(), algorithm + " / " +
                                  adversary_display_name(adversary) + " / " +
                                  to_string(model) + " n=" +
                                  std::to_string(n) + " k=" +
                                  std::to_string(k) + " horizon=" +
                                  std::to_string(horizon));
          ++runs;
        }
      }
    }
  }
  EXPECT_GE(runs, 300u);
  // The comparison is not vacuous: the runs form thousands of towers.
  EXPECT_GE(tower_events, 3000u) << tower_events;
}

/// A trace written out by hand: robot r stands on positions[t][r] at
/// configuration time t, considers `dirs[t][r]` after round t's Compute,
/// and round t's edge set is rows[t] (all edges when rows is empty).
Trace hand_trace(const Ring& ring,
                 const std::vector<std::vector<NodeId>>& positions,
                 const std::vector<std::vector<LocalDirection>>& dirs,
                 const std::vector<EdgeSet>& rows = {}) {
  std::vector<RobotSnapshot> robots;
  for (const NodeId node : positions.front()) {
    robots.push_back(RobotSnapshot{node, LocalDirection::kLeft, Chirality()});
  }
  Trace trace(ring, Configuration(ring, robots));
  for (std::size_t t = 0; t + 1 < positions.size(); ++t) {
    RoundRecord round;
    round.time = t;
    round.edges = rows.empty() ? EdgeSet::all(ring.edge_count()) : rows[t];
    for (std::size_t r = 0; r < robots.size(); ++r) {
      RobotRoundRecord rec;
      rec.node_before = positions[t][r];
      rec.node_after = positions[t + 1][r];
      rec.dir_after = dirs[t][r];
      rec.moved = rec.node_before != rec.node_after;
      round.robots.push_back(rec);
    }
    trace.append(std::move(round));
  }
  return trace;
}

constexpr LocalDirection L = LocalDirection::kLeft;
constexpr LocalDirection R = LocalDirection::kRight;

TEST(AnalysisOracleTest, ThreeRobotPile) {
  const Ring ring(6);
  const Trace trace = hand_trace(
      ring, {{0, 2, 4}, {1, 2, 3}, {2, 2, 2}, {2, 2, 2}, {3, 2, 1}},
      {{R, L, L}, {R, L, L}, {R, L, R}, {R, L, L}});
  const TowerReport report = analyze_towers(trace);
  expect_same_towers(report, reference_analyze_towers(trace), "pile");
  ASSERT_EQ(report.towers.size(), 1u);
  EXPECT_EQ(report.towers[0].robots, (std::vector<RobotId>{0, 1, 2}));
  EXPECT_EQ(report.towers[0].start, 2u);
  EXPECT_EQ(report.towers[0].end, 3u);
  EXPECT_FALSE(report.lemma_3_4_holds);
}

TEST(AnalysisOracleTest, MembershipChangeInsideATower) {
  // {0, 1} meet at node 2; robot 2 joins ({0, 1, 2}); robot 0 leaves
  // ({1, 2}); then everyone parts.  Each set is its own maximal tower.
  const Ring ring(8);
  const Trace trace = hand_trace(
      ring,
      {{1, 3, 5}, {2, 2, 4}, {2, 2, 3}, {2, 2, 2}, {1, 2, 2}, {0, 3, 1}},
      {{R, L, L}, {R, L, L}, {R, L, L}, {L, R, L}, {L, R, L}});
  const TowerReport report = analyze_towers(trace);
  expect_same_towers(report, reference_analyze_towers(trace), "membership");
  ASSERT_EQ(report.towers.size(), 3u);
  EXPECT_EQ(report.towers[0].robots, (std::vector<RobotId>{0, 1}));
  EXPECT_EQ(report.towers[0].end, 2u);
  EXPECT_EQ(report.towers[1].robots, (std::vector<RobotId>{0, 1, 2}));
  EXPECT_EQ(report.towers[2].robots, (std::vector<RobotId>{1, 2}));
  EXPECT_EQ(report.tower_formation_count, 3u);
}

TEST(AnalysisOracleTest, TowersOpenAtTheHorizon) {
  // Two disjoint towers, the one with the larger robots forming first; both
  // are still alive at the horizon and close in robot-set order there.
  const Ring ring(9);
  const Trace trace = hand_trace(
      ring, {{0, 4, 3, 3}, {1, 5, 4, 4}, {5, 5, 4, 4}, {5, 5, 4, 4}},
      {{R, L, R, L}, {R, R, L, L}, {R, L, R, L}});
  const TowerReport report = analyze_towers(trace);
  expect_same_towers(report, reference_analyze_towers(trace), "open");
  ASSERT_EQ(report.towers.size(), 2u);
  EXPECT_EQ(report.towers[0].robots, (std::vector<RobotId>{0, 1}));
  EXPECT_EQ(report.towers[0].end, 3u);
  EXPECT_EQ(report.towers[1].robots, (std::vector<RobotId>{2, 3}));
  EXPECT_EQ(report.towers[1].start, 0u);
  EXPECT_FALSE(report.lemma_3_3_holds);
}

TEST(AnalysisOracleTest, EdgeNeverPresent) {
  // Edge 3 is never present, edge 1 is absent over [1, 2] and from round 5
  // to the horizon, edge 70 (second word) over [0, 3].
  const Ring ring(72);
  std::vector<EdgeSet> rows;
  for (Time t = 0; t < 8; ++t) {
    EdgeSet row = EdgeSet::all(ring.edge_count());
    row.erase(3);
    if ((t >= 1 && t <= 2) || t >= 5) row.erase(1);
    if (t <= 3) row.erase(70);
    rows.push_back(row);
  }
  std::vector<std::vector<NodeId>> positions(9, std::vector<NodeId>{0, 10});
  std::vector<std::vector<LocalDirection>> dirs(8, {L, L});
  const Trace trace = hand_trace(ring, positions, dirs, rows);
  expect_matches_reference(trace, "never present");

  const ConnectivityAudit audit = audit_connectivity(trace, 3);
  EXPECT_EQ(audit.suspected_missing, (std::vector<EdgeId>{1, 3}));
  EXPECT_EQ(audit.max_closed_absence, 4u);
  EXPECT_FALSE(audit.connected_over_time);
  EXPECT_TRUE(audit_connectivity(trace, 4).connected_over_time);
  const RecordedSchedule replay(ring, rows);
  EXPECT_EQ(absence_intervals(replay, 8),
            (std::vector<AbsenceInterval>{{1, 1, 2, false},
                                          {1, 5, 7, true},
                                          {3, 0, 7, true},
                                          {70, 0, 3, false}}));
}

}  // namespace
}  // namespace pef
