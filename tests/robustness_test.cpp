// Robustness / self-stabilization study (the [4] connection).
//
// The paper assumes *well-initiated* executions: towerless start, k < n.
// Its predecessor [4] (Bournat, Datta, Dubois — SSS 2016) built a
// self-stabilizing algorithm precisely because PEF_3+-style protocols are
// NOT self-stabilizing: started from an arbitrary configuration (towers
// allowed, arbitrary persistent memory) they can livelock.  These tests
// pin down both sides:
//   * the specific bad initial configurations and their failure modes,
//   * the configurations PEF_3+ *does* tolerate (arbitrary dirs and
//     HasMoved flags — the memory part of the state is self-correcting;
//     only initial towers are dangerous).
#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/towers.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

SimulatorOptions lax() {
  SimulatorOptions options;
  options.enforce_well_initiated = false;
  return options;
}

TEST(RobustnessTest, InitialTowerOfTwinsLivelocks) {
  // Two robots with identical chirality starting on the SAME node see
  // identical views forever: under PEF_3+ they flip together on every
  // round they move (Rule 3 fires for both), oscillating as a pair between
  // two adjacent nodes — with an eventual missing edge elsewhere, the rest
  // of the ring starves.  This is why [4] needed extra machinery.
  const Ring ring(6);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 4, 8);
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                {{0, Chirality(true)},
                 {0, Chirality(true)},
                 {2, Chirality(true)}},
                lax());
  sim.run(1500);
  const auto coverage = analyze_coverage(sim.trace());
  EXPECT_FALSE(coverage.perpetual(6));
  // The twins never separate: every configuration keeps them colocated.
  for (Time t = 0; t <= 1500; t += 50) {
    EXPECT_EQ(sim.trace().position_at(0, t), sim.trace().position_at(1, t));
  }
}

TEST(RobustnessTest, InitialTowerWithOppositeChiralitySeparates) {
  // Opposite-chirality robots on one node pointing "left" consider
  // opposite global directions: the first move splits them and the run
  // recovers — towers are only sticky for *symmetric* members.
  const Ring ring(6);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)},
                 {0, Chirality(false)},
                 {3, Chirality(true)}},
                lax());
  sim.run(400);
  EXPECT_NE(sim.trace().position_at(0, 400), sim.trace().position_at(1, 400));
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(6));
}

TEST(RobustnessTest, ArbitraryMemoryIsSelfCorrecting) {
  // Corrupt HasMovedPreviousStep: after one Compute the variable is
  // rewritten from the actual environment, so any initial value is
  // forgotten within a round — exploration is unaffected.  We emulate the
  // corruption by starting robots "mid-run": dirs are arbitrary because
  // the initial dir is an adversarial choice anyway (the paper fixes
  // `left`, but the proofs never rely on it).
  const Ring ring(8);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring), 1, 10);
  // Mixed chiralities approximate arbitrary initial dir values (dir=left
  // with flipped chirality == dir=right unflipped, same global pointing).
  Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                {{0, Chirality(false)},
                 {3, Chirality(true)},
                 {6, Chirality(false)}});
  sim.run(1200);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(8));
}

TEST(RobustnessTest, KEqualsNIsDegenerate) {
  // With k == n (excluded by the model) PEF_3+ on a static ring still
  // "explores" trivially (every node permanently occupied), but the
  // impossibility-side machinery below k < n is what the theory is about;
  // we simply document the engine handles it when checks are relaxed.
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{0, Chirality(true)},
                 {1, Chirality(true)},
                 {2, Chirality(true)},
                 {3, Chirality(true)}},
                lax());
  sim.run(100);
  EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 4u);
}

TEST(RobustnessTest, TwinTowerOfThreeAlsoSticky) {
  // Lemma 3.4 (no 3-towers) holds for *well-initiated* executions; seeded
  // 3-towers of identical twins persist, confirming the hypothesis is
  // needed.
  const Ring ring(7);
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{2, Chirality(true)},
                 {2, Chirality(true)},
                 {2, Chirality(true)}},
                lax());
  sim.run(300);
  const auto towers = analyze_towers(sim.trace());
  EXPECT_FALSE(towers.lemma_3_4_holds);
  EXPECT_EQ(sim.trace().position_at(0, 300), sim.trace().position_at(1, 300));
  EXPECT_EQ(sim.trace().position_at(1, 300), sim.trace().position_at(2, 300));
}

TEST(RobustnessTest, RandomTowerlessStartsAlwaysRecover) {
  // The flip side: EVERY towerless initial configuration (arbitrary nodes,
  // arbitrary chiralities) is fine — this is exactly the paper's
  // well-initiated assumption, checked across random draws.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Ring ring(7);
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), 3, 12);
    Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  random_placements(ring, 3, seed));
    sim.run(1800);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(7))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace pef
