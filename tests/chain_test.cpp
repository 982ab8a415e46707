// Tests for connected-over-time chains (the paper's closing remark: all
// results carry over to chains, since a chain is a ring with one edge that
// never appears).
#include "dynamic_graph/chain.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "adversary/proof_adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

TEST(ChainTest, CutEdgeNeverPresent) {
  auto chain = ChainSchedule::cut_last(
      std::make_shared<BernoulliSchedule>(Ring(6), 0.8, 3));
  EXPECT_EQ(chain->cut_edge(), 5u);
  EXPECT_EQ(chain->left_end(), 0u);
  EXPECT_EQ(chain->right_end(), 5u);
  for (Time t = 0; t < 500; ++t) {
    EXPECT_FALSE(chain->edges_at(t).contains(5));
  }
}

TEST(ChainTest, ChainOfStaticBaseIsLegal) {
  auto chain =
      ChainSchedule::cut_last(std::make_shared<StaticSchedule>(Ring(8)));
  const auto audit = audit_connectivity(*chain, 400, 100);
  EXPECT_TRUE(audit.connected_over_time);
  ASSERT_EQ(audit.suspected_missing.size(), 1u);
  EXPECT_EQ(audit.suspected_missing[0], 7u);
}

TEST(ChainTest, Pef3PlusExploresChains) {
  // Theorem 3.1 on chains: k = 3 robots explore any connected-over-time
  // chain of n > 3 nodes.  The cut edge plays the eventual-missing-edge
  // role, so sentinels form at the chain's two endpoints.
  for (std::uint32_t n : {4u, 6u, 10u}) {
    auto chain = ChainSchedule::cut_last(
        std::make_shared<StaticSchedule>(Ring(n)));
    Simulator sim(Ring(n), make_algorithm("pef3+"), make_oblivious(chain),
                  spread_placements(Ring(n), 3));
    sim.run(600 * n);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n)) << "n=" << n;
  }
}

TEST(ChainTest, Pef3PlusExploresFlickeringChains) {
  // The chain's surviving edges may still flicker arbitrarily.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::uint32_t n = 7;
    auto chain = ChainSchedule::cut_last(
        std::make_shared<BernoulliSchedule>(Ring(n), 0.5, seed));
    Simulator sim(Ring(n), make_algorithm("pef3+"), make_oblivious(chain),
                  spread_placements(Ring(n), 3));
    sim.run(800 * n);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n))
        << "seed=" << seed;
  }
}

TEST(ChainTest, TwoRobotsFailOnChainsOfFourOrMore) {
  // Theorem 4.1 on chains: the staged adversary works unchanged (it never
  // needed the cut edge anyway when the window avoids it).
  const std::uint32_t n = 6;
  const Ring ring(n);
  for (const std::string& name : deterministic_algorithm_names()) {
    // Window {1, 2, 3} away from the cut edge (4, 5)-(0).
    Simulator sim(ring, make_algorithm(name),
                  std::make_unique<StagedProofAdversary>(ring, 1, 3, 64),
                  {{1, Chirality(true)}, {2, Chirality(true)}});
    sim.run(3000);
    EXPECT_FALSE(analyze_coverage(sim.trace()).perpetual(n)) << name;
  }
}

TEST(ChainTest, TwoNodeChainIsTheRingOfSizeTwoSpecialCase) {
  // The paper's "simple graph" reading of the 2-ring: one bidirectional
  // edge.  PEF_1 works on it (Theorem 5.2 covers both readings).
  auto chain =
      ChainSchedule::cut_last(std::make_shared<StaticSchedule>(Ring(2)));
  Simulator sim(Ring(2), make_algorithm("pef1"), make_oblivious(chain),
                {{0, Chirality(true)}});
  sim.run(100);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(2));
}

}  // namespace
}  // namespace pef
