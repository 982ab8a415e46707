// Tests for the Markov edge dynamics.
#include "dynamic_graph/markov_schedule.hpp"

#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/temporal.hpp"
#include "oracles/simulators.hpp"
#include "schedule_rows.hpp"

namespace pef {
namespace {

TEST(MarkovTest, Deterministic) {
  const MarkovSchedule a(Ring(6), 0.2, 0.4, 11);
  const MarkovSchedule b(Ring(6), 0.2, 0.4, 11);
  for (Time t = 0; t < 200; ++t) EXPECT_EQ(a.edges_at(t), b.edges_at(t));
}

TEST(MarkovTest, EdgesStartUp) {
  const MarkovSchedule s(Ring(5), 0.3, 0.3, 7);
  EXPECT_TRUE(s.edges_at(0).full());
}

TEST(MarkovTest, RandomAccessMatchesSequential) {
  const MarkovSchedule seq(Ring(4), 0.25, 0.5, 21);
  const MarkovSchedule rnd(Ring(4), 0.25, 0.5, 21);
  std::vector<EdgeSet> expected;
  for (Time t = 0; t < 150; ++t) expected.push_back(seq.edges_at(t));
  for (Time t = 150; t-- > 0;) {
    EXPECT_EQ(rnd.edges_at(t), expected[static_cast<std::size_t>(t)]);
  }
}

TEST(MarkovTest, RowsMatchChainStreams) {
  // The chain written out longhand: every edge starts up; each later round
  // takes one draw from the edge's own stream, failing an up edge with
  // p_fail and recovering a down edge with p_recover.  Ring sizes cover one
  // word with and without a tail, one bit past a word and three words.
  const Time kRounds = 300;
  for (const std::uint32_t n : {2u, 3u, 63u, 64u, 65u, 130u}) {
    for (const double p_fail : {0.0, 0.3, 0.7, 1.0}) {
      for (const double p_recover : {0.3, 0.7, 1.0}) {
        const std::uint64_t seed = 3000 + n;
        std::vector<std::vector<bool>> history(n);
        for (EdgeId e = 0; e < n; ++e) {
          Xoshiro256 rng(derive_seed(seed, e, 0x3a7c0f));
          bool up = true;
          history[e].push_back(up);
          while (history[e].size() < kRounds) {
            up = up ? !rng.next_bool(p_fail) : rng.next_bool(p_recover);
            history[e].push_back(up);
          }
        }
        const MarkovSchedule s(Ring(n), p_fail, p_recover, seed);
        expect_rows_match(s, scrambled_rounds(kRounds),
                          [&](EdgeId e, Time t) {
                            return static_cast<bool>(
                                history[e][static_cast<std::size_t>(t)]);
                          });
      }
    }
  }
}

TEST(MarkovTest, AvailabilityMatchesStationary) {
  const double p_fail = 0.1, p_recover = 0.3;
  const MarkovSchedule s(Ring(8), p_fail, p_recover, 5);
  std::uint64_t up = 0;
  const Time horizon = 20000;
  for (Time t = 0; t < horizon; ++t) up += s.edges_at(t).size();
  const double availability =
      static_cast<double>(up) / (8.0 * static_cast<double>(horizon));
  EXPECT_NEAR(availability, s.stationary_availability(), 0.02);
  EXPECT_NEAR(s.stationary_availability(), 0.75, 1e-9);
}

TEST(MarkovTest, BurstsLongerThanBernoulli) {
  // With small p_recover, down-runs are long (mean 1/p_recover) — the
  // qualitative difference from iid Bernoulli at equal availability.
  const MarkovSchedule s(Ring(4), 0.05, 0.05, 9);
  Time longest_down = 0;
  Time run = 0;
  for (Time t = 0; t < 20000; ++t) {
    if (s.edges_at(t).contains(0)) {
      run = 0;
    } else {
      longest_down = std::max(longest_down, ++run);
    }
  }
  EXPECT_GT(longest_down, 20u);
}

TEST(MarkovTest, ConnectedOverTimeAudit) {
  const MarkovSchedule s(Ring(6), 0.2, 0.3, 13);
  EXPECT_TRUE(audit_connectivity(s, 3000, 600).connected_over_time);
  EXPECT_TRUE(all_pairs_reachable(s, 0, 2000));
}

TEST(MarkovTest, Pef3PlusExploresMarkovRings) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Ring ring(8);
    auto schedule = std::make_shared<MarkovSchedule>(ring, 0.15, 0.25, seed);
    Simulator sim(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  spread_placements(ring, 3));
    sim.run(8000);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(8))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace pef
