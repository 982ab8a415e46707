// Property-based sweeps: model-level invariants checked across randomized
// workloads (seeds, sizes, placements, chiralities).
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/sentinels.hpp"
#include "analysis/towers.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

// --- Determinism -----------------------------------------------------------

TEST(PropertyTest, SimulatorIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Ring ring(7);
    auto make_run = [&] {
      auto schedule =
          std::make_shared<BernoulliSchedule>(ring, 0.5, seed);
      Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                    random_placements(ring, 3, seed));
      sim.run(400);
      std::vector<NodeId> positions;
      for (Time t = 0; t <= 400; ++t) {
        for (RobotId r = 0; r < 3; ++r) {
          positions.push_back(sim.trace().position_at(r, t));
        }
      }
      return positions;
    };
    EXPECT_EQ(make_run(), make_run());
  }
}

// --- Structural lemmas of Section 3 across random workloads ---------------

class Pef3PlusInvariantTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Pef3PlusInvariantTest, TowerLemmasUnderRandomDynamics) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(derive_seed(seed, 0xabc));
  const auto n = static_cast<std::uint32_t>(4 + rng.next_below(10));
  const auto k = static_cast<std::uint32_t>(
      3 + rng.next_below(std::min(3u, n - 4) + 1));
  const Ring ring(n);
  auto schedule = std::make_shared<BernoulliSchedule>(
      ring, 0.3 + 0.6 * rng.next_double(), seed);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                random_placements(ring, k, derive_seed(seed, 1)));
  sim.run(300 * n);
  const auto towers = analyze_towers(sim.trace());
  EXPECT_TRUE(towers.lemma_3_4_holds) << "n=" << n << " k=" << k;
  EXPECT_TRUE(towers.lemma_3_3_holds) << "n=" << n << " k=" << k;
}

TEST_P(Pef3PlusInvariantTest, PerpetualAndGapBoundedUnderRandomDynamics) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(derive_seed(seed, 0xdef));
  const auto n = static_cast<std::uint32_t>(4 + rng.next_below(8));
  const Ring ring(n);
  // Dense-ish dynamics so finite-horizon gap bounds are meaningful.
  auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.7, seed);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                random_placements(ring, 3, derive_seed(seed, 2)));
  sim.run(500 * n);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_TRUE(coverage.perpetual(n)) << "n=" << n;
  // The paper's argument gives a gap linear in n per "phase"; allow a
  // generous constant for stochastic edge waiting.
  EXPECT_LE(coverage.max_revisit_gap, 120u * n) << "n=" << n;
}

TEST_P(Pef3PlusInvariantTest, SentinelsUnderRandomMissingEdge) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(derive_seed(seed, 0x5e9));
  const auto n = static_cast<std::uint32_t>(5 + rng.next_below(8));
  const Ring ring(n);
  const auto missing = static_cast<EdgeId>(rng.next_below(n));
  const Time vanish = 5 + rng.next_below(3 * n);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), missing, vanish);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                random_placements(ring, 3, derive_seed(seed, 3)));
  sim.run(600 * n);
  const auto sentinels = analyze_sentinels(sim.trace(), missing);
  EXPECT_TRUE(sentinels.sentinels_formed())
      << "n=" << n << " missing=" << missing << " vanish=" << vanish;
  EXPECT_EQ(sentinels.sentinels_at_horizon.size(), 2u);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pef3PlusInvariantTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Adversary legality is monotone in patience ----------------------------

TEST(PropertyTest, LegalityAuditMonotoneInPatience) {
  const Ring ring(6);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 2, 50);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3));
  sim.run(600);
  std::size_t previous = 100;
  for (Time patience : {Time{10}, Time{100}, Time{400}, Time{600}}) {
    const auto audit = audit_connectivity(sim.trace(), patience);
    EXPECT_LE(audit.suspected_missing.size(), previous);
    previous = audit.suspected_missing.size();
  }
}

// --- Conservation: robots neither vanish nor teleport ----------------------

class ConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationTest, MovesAreSingleHopsAlongPresentEdges) {
  const std::uint64_t seed = GetParam();
  const Ring ring(9);
  auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.5, seed);
  Simulator sim(ring, make_algorithm("random-walk", seed),
                make_oblivious(schedule),
                random_placements(ring, 4, seed));
  sim.run(500);
  for (const RoundRecord& round : sim.trace().rounds()) {
    for (const RobotRoundRecord& r : round.robots) {
      if (!r.moved) {
        EXPECT_EQ(r.node_before, r.node_after);
        continue;
      }
      EXPECT_EQ(ring.distance(r.node_before, r.node_after), 1u);
      // The crossed edge was present in the round's edge set.
      bool found = false;
      for (const auto d : {GlobalDirection::kClockwise,
                           GlobalDirection::kCounterClockwise}) {
        const EdgeId e = ring.adjacent_edge(r.node_before, d);
        if (ring.neighbour(r.node_before, d) == r.node_after &&
            round.edges.contains(e)) {
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(1ull, 7ull, 23ull, 99ull));

// --- Blocked robots never move ---------------------------------------------

TEST(PropertyTest, RobotNeverMovesThroughAbsentPointedEdge) {
  const Ring ring(5);
  auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.4, 404);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(schedule), {{0, Chirality(true)}});
  sim.run(300);
  for (const RoundRecord& round : sim.trace().rounds()) {
    const auto& r = round.robots[0];
    // keep-direction always considers ccw; it moves iff that edge present.
    const EdgeId pointed = ring.adjacent_edge(
        r.node_before, GlobalDirection::kCounterClockwise);
    EXPECT_EQ(r.moved, round.edges.contains(pointed));
  }
}

}  // namespace
}  // namespace pef
