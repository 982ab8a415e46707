// Tests for the Lemma 4.1 mirror construction (Figure 1).
#include "core/lemma41.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "engine/engine.hpp"
#include "oracles/simulators.hpp"

namespace pef::lemma41 {
namespace {

// Build an original execution on an 8-ring where robot 0 stays inside a
// 2-node neighbourhood around node 4 and robot 1 is walled at node 0.
// `around4` gives, per round, the presence of (edge 3, edge 4) — the ccw/cw
// edges of node 4; edge 2 and edge 5 stay absent so robot 0 can never leave
// {3, 4, 5}; edges 7 and 0 stay absent so robot 1 never moves.
Trace run_original(const AlgorithmPtr& algorithm,
                   const std::vector<std::pair<bool, bool>>& around4,
                   Time extra = 0, Chirality r0_chirality = Chirality(true)) {
  const Ring ring(8);
  std::vector<EdgeSet> rounds;
  for (const auto& [e3, e4] : around4) {
    EdgeSet s(8);
    if (e3) s.insert(3);
    if (e4) s.insert(4);
    s.insert(1);  // immaterial far edge, keeps the graph lively
    rounds.push_back(s);
  }
  auto schedule = std::make_shared<RecordedSchedule>(ring, rounds,
                                                     TailRule::kRepeatLast);
  Simulator sim(ring, algorithm, make_oblivious(schedule),
                {{4, r0_chirality}, {0, Chirality(true)}});
  sim.run(around4.size() + extra);
  return sim.trace();
}

TEST(ExtractPrefixTest, NeverMovedCase) {
  const auto algo = make_algorithm("keep-direction");
  // Both adjacent edges of node 4 absent for 6 rounds.
  const Trace trace = run_original(
      algo, std::vector<std::pair<bool, bool>>(6, {false, false}));
  const auto prefix = extract_prefix(trace, 0, 6);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->geometry, Case::kStayedNeverMoved);
  EXPECT_EQ(prefix->i, 4u);
  EXPECT_EQ(prefix->f, 4u);
  EXPECT_EQ(prefix->a, 4u);
  EXPECT_EQ(prefix->neighbourhood.size(), 6u);
  for (const auto& nb : prefix->neighbourhood) {
    EXPECT_FALSE(nb.r_i);
    EXPECT_FALSE(nb.l_i);
  }
}

TEST(ExtractPrefixTest, VisitedCcwAndCameBack) {
  const auto algo = make_algorithm("bounce");
  // Round 0: ccw edge (3) present -> bounce moves 4 -> 3.
  // Rounds 1-2: nothing around node 3 -> waits there.
  // Round 3: edge 3 present again -> flips and returns to 4.
  const Trace trace = run_original(
      algo, {{true, false}, {false, false}, {false, false}, {true, false}});
  const auto prefix = extract_prefix(trace, 0, 4);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->geometry, Case::kStayedVisitedCcw);
  EXPECT_EQ(prefix->i, 4u);
  EXPECT_EQ(prefix->a, 3u);
  EXPECT_EQ(prefix->f, 4u);
}

TEST(ExtractPrefixTest, EndedOnCwNeighbour) {
  const auto algo = make_algorithm("bounce");
  // Bounce initially points ccw (left); with only the cw edge (4) present
  // it flips and moves 4 -> 5, then stays (nothing present around 5).
  const Trace trace = run_original(
      algo, {{false, true}, {false, false}, {false, false}});
  const auto prefix = extract_prefix(trace, 0, 3);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->geometry, Case::kEndedOnACw);
  EXPECT_EQ(prefix->i, 4u);
  EXPECT_EQ(prefix->a, 5u);
  EXPECT_EQ(prefix->f, 5u);
}

TEST(ExtractPrefixTest, RejectsTowerPrefix) {
  // Two robots meeting head-on form a tower: the lemma preconditions fail.
  const Ring ring(4);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(schedule),
                {{2, Chirality(true)}, {0, Chirality(false)}});
  sim.run(4);
  EXPECT_EQ(extract_prefix(sim.trace(), 0, 4), std::nullopt);
}

TEST(ExtractPrefixTest, RejectsWideWanderer) {
  // A robot that visits 3 nodes violates the "at most two adjacent nodes"
  // precondition.
  const Ring ring(8);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(schedule),
                {{4, Chirality(true)}, {0, Chirality(true)}});
  sim.run(3);
  EXPECT_EQ(extract_prefix(sim.trace(), 0, 3), std::nullopt);
}

// Runs `construction` on the reference Simulator and on a traced Engine for
// prefix.t + extra rounds: the Engine must record the oracle's trace round
// by round, and the claims checked on the oracle's trace and states must
// give `report`, what replay_and_verify returned.
void expect_replay_matches_oracle(const Construction& construction,
                                  const AlgorithmPtr& algo,
                                  const Trace& original,
                                  const PrefixSummary& prefix, Time extra,
                                  const MirrorReport& report) {
  Simulator oracle(construction.ring, algo,
                   make_oblivious(construction.schedule),
                   {construction.r1, construction.r2});
  EngineOptions options;
  options.record_trace = true;
  Engine engine(construction.ring, algo,
                make_oblivious(construction.schedule),
                {construction.r1, construction.r2}, options);
  oracle.run(prefix.t);
  engine.run(prefix.t);
  const KernelState oracle_r1_at_t = oracle.robot(0).state();
  const KernelState oracle_r2_at_t = oracle.robot(1).state();
  EXPECT_EQ(engine.robot_state(0), oracle_r1_at_t);
  EXPECT_EQ(engine.robot_state(1), oracle_r2_at_t);
  oracle.run(extra);
  engine.run(extra);
  const auto& expected = oracle.trace().rounds();
  const auto& actual = engine.trace().rounds();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_TRUE(actual[j] == expected[j]) << "round " << j;
  }
  EXPECT_EQ(report, verify_mirror(construction, oracle.trace(),
                                  oracle_r1_at_t, oracle_r2_at_t, original, 0,
                                  prefix));
}

struct MirrorCase {
  const char* algorithm;
  std::vector<std::pair<bool, bool>> around4;
  Case expected_case;
};

class MirrorConstructionTest : public ::testing::TestWithParam<MirrorCase> {};

TEST_P(MirrorConstructionTest, AllFourClaimsHold) {
  const MirrorCase& param = GetParam();
  const auto algo = make_algorithm(param.algorithm);
  const Trace original = run_original(algo, param.around4);
  const Time t = param.around4.size();

  const auto prefix = extract_prefix(original, 0, t);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->geometry, param.expected_case);

  const Construction construction = build(*prefix);
  EXPECT_EQ(construction.ring.node_count(), 8u);
  EXPECT_EQ(construction.f1, 0u);
  EXPECT_EQ(construction.f2, 1u);
  // Opposite chirality placement (the paper's setup).
  EXPECT_EQ(construction.r1.chirality.flipped(), construction.r2.chirality);

  constexpr Time kExtra = 50;
  const auto report = replay_and_verify(construction, algo, original, 0,
                                        *prefix, kExtra);
  EXPECT_TRUE(report.claim1_symmetry);
  EXPECT_TRUE(report.claim2_no_tower);
  EXPECT_TRUE(report.claim3_replay);
  EXPECT_TRUE(report.claim4_adjacent);
  expect_replay_matches_oracle(construction, algo, original, *prefix, kExtra,
                               report);
}

INSTANTIATE_TEST_SUITE_P(
    FigureOneCases, MirrorConstructionTest,
    ::testing::Values(
        // Case 2 of Figure 1: i = f = a (never moved).
        MirrorCase{"keep-direction",
                   std::vector<std::pair<bool, bool>>(5, {false, false}),
                   Case::kStayedNeverMoved},
        // Visited the ccw neighbour and returned (i = f, d(i,a) = 1).
        MirrorCase{"bounce",
                   {{true, false}, {false, false}, {false, false},
                    {true, false}},
                   Case::kStayedVisitedCcw},
        // Visited the cw neighbour and returned.
        MirrorCase{"bounce",
                   {{false, true}, {false, false}, {false, false},
                    {false, true}},
                   Case::kStayedVisitedCw},
        // Ended on the cw neighbour (i != f, a = f).
        MirrorCase{"bounce",
                   {{false, true}, {false, false}},
                   Case::kEndedOnACw},
        // Ended on the ccw neighbour.
        MirrorCase{"keep-direction",
                   {{true, false}, {false, false}},
                   Case::kEndedOnACcw}));

TEST(MirrorConstructionTest, CampingAlgorithmHoldsGluedNodesForever) {
  // keep-direction camps under OneEdge: give robot 0 the chirality that
  // makes it point clockwise in G (hence at the glue edge in G').  Both
  // mirror copies then hold f'1 / f'2 for the entire post-t window and only
  // the two glued nodes are ever visited — the contradiction Theorem 4.1
  // derives from a state that never departs.
  const auto algo = make_algorithm("keep-direction");
  const std::vector<std::pair<bool, bool>> around4(4, {false, false});
  const Trace original =
      run_original(algo, around4, /*extra=*/0, Chirality(false));
  const auto prefix = extract_prefix(original, 0, 4);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->geometry, Case::kStayedNeverMoved);
  const Construction construction = build(*prefix);
  const auto report = replay_and_verify(construction, algo, original, 0,
                                        *prefix, /*extra_rounds=*/200);
  EXPECT_TRUE(report.all_claims());
  EXPECT_EQ(report.post_hold_rounds, 200u);
  EXPECT_LE(report.visited_nodes, 2u);
  expect_replay_matches_oracle(construction, algo, original, *prefix, 200,
                               report);
}

}  // namespace
}  // namespace pef::lemma41
