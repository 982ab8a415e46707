// Unit tests for the oblivious schedule library.
#include "dynamic_graph/schedules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dynamic_graph/markov_schedule.hpp"
#include "schedule_rows.hpp"

namespace pef {
namespace {

TEST(StaticScheduleTest, AllEdgesAlways) {
  const StaticSchedule s(Ring(5));
  for (Time t = 0; t < 20; ++t) {
    EXPECT_TRUE(s.edges_at(t).full());
  }
}

TEST(RecordedScheduleTest, PrefixThenAllPresent) {
  const Ring ring(4);
  EdgeSet round0 = EdgeSet::none(4);
  round0.insert(1);
  EdgeSet round1 = EdgeSet::all(4);
  round1.erase(3);
  const RecordedSchedule s(ring, {round0, round1}, TailRule::kAllPresent);
  EXPECT_EQ(s.edges_at(0), round0);
  EXPECT_EQ(s.edges_at(1), round1);
  EXPECT_TRUE(s.edges_at(2).full());
  EXPECT_TRUE(s.edges_at(1000).full());
}

TEST(RecordedScheduleTest, RepeatLastTail) {
  const Ring ring(3);
  EdgeSet last = EdgeSet::none(3);
  last.insert(0);
  const RecordedSchedule s(ring, {EdgeSet::all(3), last},
                           TailRule::kRepeatLast);
  EXPECT_EQ(s.edges_at(5), last);
  EXPECT_EQ(s.edges_at(500), last);
}

TEST(RecordedScheduleTest, CyclePrefixTail) {
  const Ring ring(3);
  EdgeSet a = EdgeSet::none(3);
  a.insert(0);
  EdgeSet b = EdgeSet::none(3);
  b.insert(1);
  const RecordedSchedule s(ring, {a, b}, TailRule::kCyclePrefix);
  EXPECT_EQ(s.edges_at(2), a);
  EXPECT_EQ(s.edges_at(3), b);
  EXPECT_EQ(s.edges_at(100), a);
  EXPECT_EQ(s.edges_at(101), b);
}

TEST(BernoulliScheduleTest, Deterministic) {
  const BernoulliSchedule a(Ring(6), 0.5, 99);
  const BernoulliSchedule b(Ring(6), 0.5, 99);
  for (Time t = 0; t < 50; ++t) EXPECT_EQ(a.edges_at(t), b.edges_at(t));
}

TEST(BernoulliScheduleTest, ExtremeProbabilities) {
  const BernoulliSchedule never(Ring(5), 0.0, 1);
  const BernoulliSchedule always(Ring(5), 1.0, 1);
  for (Time t = 0; t < 20; ++t) {
    EXPECT_TRUE(never.edges_at(t).empty());
    EXPECT_TRUE(always.edges_at(t).full());
  }
}

TEST(BernoulliScheduleTest, FrequencyMatchesP) {
  const double p = 0.3;
  const BernoulliSchedule s(Ring(8), p, 7);
  std::uint64_t present = 0;
  const Time horizon = 5000;
  for (Time t = 0; t < horizon; ++t) present += s.edges_at(t).size();
  const double freq =
      static_cast<double>(present) / (8.0 * static_cast<double>(horizon));
  EXPECT_NEAR(freq, p, 0.02);
}

TEST(BernoulliScheduleTest, EveryEdgeRecurrent) {
  const BernoulliSchedule s(Ring(6), 0.2, 13);
  for (EdgeId e = 0; e < 6; ++e) {
    Time last_seen = 0;
    bool seen_recently = false;
    for (Time t = 0; t < 2000; ++t) {
      if (s.edges_at(t).contains(e)) {
        last_seen = t;
        seen_recently = true;
      }
    }
    EXPECT_TRUE(seen_recently);
    EXPECT_GT(last_seen, 1000u) << "edge " << e << " not recurrent";
  }
}

TEST(PeriodicScheduleTest, RespectsPattern) {
  const Ring ring(3);
  std::vector<PeriodicSchedule::EdgePattern> patterns{
      {4, 2, 0},  // present at t % 4 in {0, 1}
      {2, 1, 1},  // present at (t+1) % 2 == 0, i.e. odd t
      {1, 1, 0},  // always present
  };
  const PeriodicSchedule s(ring, patterns);
  EXPECT_TRUE(s.edges_at(0).contains(0));
  EXPECT_TRUE(s.edges_at(1).contains(0));
  EXPECT_FALSE(s.edges_at(2).contains(0));
  EXPECT_FALSE(s.edges_at(3).contains(0));
  EXPECT_TRUE(s.edges_at(4).contains(0));
  EXPECT_FALSE(s.edges_at(0).contains(1));
  EXPECT_TRUE(s.edges_at(1).contains(1));
  for (Time t = 0; t < 10; ++t) EXPECT_TRUE(s.edges_at(t).contains(2));
}

TEST(PeriodicScheduleTest, RotatingKeepsMostEdges) {
  const auto s = PeriodicSchedule::rotating(Ring(6), /*period=*/3,
                                            /*duty=*/2);
  for (Time t = 0; t < 30; ++t) {
    // duty/period = 2/3 of edges present on average; at least some present.
    EXPECT_GE(s.edges_at(t).size(), 2u);
  }
}

/// The presence rule written out independently of the schedule: the row
/// E_t for `patterns`, tail bits past the last edge clear.
std::vector<std::uint64_t> expected_row(
    const std::vector<PeriodicSchedule::EdgePattern>& patterns, Time t) {
  const auto edges = static_cast<std::uint32_t>(patterns.size());
  std::vector<std::uint64_t> row(edge_word_count(edges), 0);
  for (EdgeId e = 0; e < edges; ++e) {
    const PeriodicSchedule::EdgePattern& p = patterns[e];
    if ((t + p.phase) % p.period < p.duty) row[e >> 6] |= 1ULL << (e & 63);
  }
  return row;
}

struct PeriodicCase {
  std::string label;
  std::vector<PeriodicSchedule::EdgePattern> patterns;
  PeriodicSchedule schedule;
};

/// rotating(period, duty) alongside the patterns it is documented to build.
PeriodicCase rotating_case(const Ring& ring, std::uint32_t period,
                           std::uint32_t duty) {
  std::vector<PeriodicSchedule::EdgePattern> patterns(ring.edge_count());
  for (EdgeId e = 0; e < ring.edge_count(); ++e) {
    patterns[e] = {period, duty, e % period};
  }
  return {"rotating(" + std::to_string(period) + "," + std::to_string(duty) +
              ")",
          patterns, PeriodicSchedule::rotating(ring, period, duty)};
}

TEST(PeriodicScheduleTest, RowsMatchPerEdgeFormula) {
  // Tabulated rows (and the per-edge path above the table cap) against the
  // formula, on rings that sit below, on and across 64-edge word boundaries.
  constexpr std::uint32_t kMixedPeriods[] = {2, 3, 4, 6, 9};
  for (const std::uint32_t n : {3u, 63u, 64u, 65u, 130u, 512u}) {
    const Ring ring(n);
    const std::uint32_t words = edge_word_count(n);
    std::vector<PeriodicSchedule::EdgePattern> mixed(n);
    std::vector<PeriodicSchedule::EdgePattern> over_cap(n);
    for (EdgeId e = 0; e < n; ++e) {
      const std::uint32_t period = kMixedPeriods[e % 5];
      mixed[e] = {period, e % (period + 1), e * 7};
      over_cap[e] = {e % 2 == 0 ? 65521u : 65519u, 3, e};
    }
    const std::vector<PeriodicCase> cases = {
        rotating_case(ring, 5, 3),
        rotating_case(ring, 1, 1),
        rotating_case(ring, 7, 7),
        rotating_case(ring, 600, 1),  // period > n for every n here
        {"mixed", mixed, PeriodicSchedule(ring, mixed)},
        {"over-cap", over_cap, PeriodicSchedule(ring, over_cap)},
    };

    for (const auto& [label, patterns, s] : cases) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + label);
      const Time period = s.recurrence().period;
      if (label == "over-cap") {
        ASSERT_GT(period, PeriodicSchedule::kMaxTabulatedWords / words);
      }
      std::vector<Time> times;
      for (Time t = 0; t < std::min<Time>(3 * period, 4096); ++t) {
        times.push_back(t);
      }
      times.push_back((Time{1} << 32) - 1);
      times.push_back((Time{1} << 40) + 3);

      // One spare word past the row catches a filler that overruns it.
      std::vector<std::uint64_t> row(words + 1);
      EdgeSet into(n);
      for (const Time t : times) {
        const std::vector<std::uint64_t> expected = expected_row(patterns, t);
        std::fill(row.begin(), row.end(), ~0ULL);
        s.edges_into_words(t, row.data());
        into.fill();
        s.edges_into(t, into);
        const EdgeSet at = s.edges_at(t);
        const std::vector<std::uint64_t> from_words(row.begin(),
                                                    row.begin() + words);
        const std::vector<std::uint64_t> from_into(into.words(),
                                                   into.words() + words);
        const std::vector<std::uint64_t> from_at(at.words(),
                                                 at.words() + words);
        ASSERT_EQ(from_words, expected) << "edges_into_words t=" << t;
        ASSERT_EQ(row[words], ~0ULL) << "edges_into_words overran, t=" << t;
        ASSERT_EQ(from_into, expected) << "edges_into t=" << t;
        ASSERT_EQ(from_at, expected) << "edges_at t=" << t;
      }
    }
  }
}

TEST(TIntervalScheduleTest, AtMostOneEdgeMissing) {
  const TIntervalConnectedSchedule s(Ring(7), 5, 3);
  for (Time t = 0; t < 200; ++t) {
    EXPECT_GE(s.edges_at(t).size(), 6u);
  }
}

TEST(TIntervalScheduleTest, MissingEdgeStableWithinEpoch) {
  const TIntervalConnectedSchedule s(Ring(7), 5, 3);
  for (Time epoch = 0; epoch < 20; ++epoch) {
    const EdgeSet first = s.edges_at(epoch * 5);
    for (Time o = 1; o < 5; ++o) {
      EXPECT_EQ(s.edges_at(epoch * 5 + o), first);
    }
  }
}

TEST(EventualMissingEdgeTest, VanishesForever) {
  auto base = std::make_shared<StaticSchedule>(Ring(5));
  const EventualMissingEdgeSchedule s(base, 2, 10);
  for (Time t = 0; t < 10; ++t) EXPECT_TRUE(s.edges_at(t).contains(2));
  for (Time t = 10; t < 100; ++t) {
    EXPECT_FALSE(s.edges_at(t).contains(2));
    EXPECT_EQ(s.edges_at(t).size(), 4u);
  }
}

TEST(BoundedAbsenceTest, AbsenceRunsAreBounded) {
  const Time max_absence = 4;
  const BoundedAbsenceSchedule s(Ring(5), max_absence, 6, 11);
  for (EdgeId e = 0; e < 5; ++e) {
    Time run = 0;
    for (Time t = 0; t < 3000; ++t) {
      if (s.edges_at(t).contains(e)) {
        run = 0;
      } else {
        ++run;
        EXPECT_LE(run, max_absence) << "edge " << e << " at t=" << t;
      }
    }
  }
}

TEST(BoundedAbsenceTest, RandomAccessMatchesSequential) {
  const BoundedAbsenceSchedule seq(Ring(4), 3, 5, 21);
  const BoundedAbsenceSchedule rnd(Ring(4), 3, 5, 21);
  // Query `rnd` out of order and compare against in-order `seq`.
  std::vector<EdgeSet> expected;
  for (Time t = 0; t < 100; ++t) expected.push_back(seq.edges_at(t));
  for (Time t = 100; t-- > 0;) {
    EXPECT_EQ(rnd.edges_at(t), expected[static_cast<std::size_t>(t)]);
  }
}

TEST(SurgeryScheduleTest, RemovesDuringIntervals) {
  auto base = std::make_shared<StaticSchedule>(Ring(4));
  const SurgerySchedule s(base, {{0, 2, 5}, {1, 4, 4}, {0, 10, 12}});
  EXPECT_TRUE(s.edges_at(1).contains(0));
  for (Time t = 2; t <= 5; ++t) EXPECT_FALSE(s.edges_at(t).contains(0));
  EXPECT_TRUE(s.edges_at(6).contains(0));
  EXPECT_FALSE(s.edges_at(4).contains(1));
  EXPECT_TRUE(s.edges_at(5).contains(1));
  EXPECT_FALSE(s.edges_at(11).contains(0));
  EXPECT_TRUE(s.edges_at(13).contains(0));
}

TEST(SurgeryScheduleTest, InfiniteRemoval) {
  auto base = std::make_shared<StaticSchedule>(Ring(4));
  const SurgerySchedule s(base, {{3, 7, kTimeInfinity}});
  EXPECT_TRUE(s.edges_at(6).contains(3));
  EXPECT_FALSE(s.edges_at(7).contains(3));
  EXPECT_FALSE(s.edges_at(100000).contains(3));
}

// ---------------------------------------------------------------------------
// The word-row plane fillers: edges_into_words must agree bit-for-bit with
// edges_at / edges_into for EVERY family (BatchEngine fills its edge plane
// through them and skips the EdgeSet path entirely), including the default
// fallback (Recorded/Surgery), tail-masked rings (n not a multiple of 64)
// and multi-word rings (n > 64).

TEST(ScheduleWordsTest, EdgesIntoWordsMatchesEdgesAtForEveryFamily) {
  for (const std::uint32_t n : {9u, 70u, 130u}) {
    const Ring ring(n);
    std::vector<SchedulePtr> schedules = {
        std::make_shared<StaticSchedule>(ring),
        std::make_shared<BernoulliSchedule>(ring, 0.4, 7),
        std::make_shared<PeriodicSchedule>(
            PeriodicSchedule::rotating(ring, 5, 3)),
        std::make_shared<TIntervalConnectedSchedule>(ring, 4, 11),
        std::make_shared<BoundedAbsenceSchedule>(ring, 3, 5, 13),
        std::make_shared<EventualMissingEdgeSchedule>(
            std::make_shared<BernoulliSchedule>(ring, 0.8, 3),
            static_cast<EdgeId>(n / 2), 6),
        std::make_shared<MarkovSchedule>(ring, 0.2, 0.4, 17),
        // Default-implementation fallback (no override).
        std::make_shared<SurgerySchedule>(
            std::make_shared<StaticSchedule>(ring),
            std::vector<Removal>{{1, 2, 9}}),
    };
    for (const SchedulePtr& schedule : schedules) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + schedule->name());
      std::vector<std::uint64_t> row(edge_word_count(n), ~0ULL);
      for (Time t = 0; t < 40; ++t) {
        schedule->edges_into_words(t, row.data());
        EdgeSet from_words(n);
        from_words.assign_words(row.data());
        EXPECT_EQ(from_words, schedule->edges_at(t)) << "t=" << t;
        // Tail bits must stay clear so full()/word compares stay valid.
        EXPECT_TRUE(edge_words_full(row.data(), n) ==
                    schedule->edges_at(t).full());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The stochastic families against their definitions, written out longhand:
// Bernoulli draws one seeded stream per (edge, round); bounded-absence
// decodes each edge's run lengths from its own stream.  The ring sizes
// cover one edge word with and without a tail (2, 3, 63, 64), one bit past
// a word (65) and three words (130).

const std::uint32_t kFormulaRingSizes[] = {2, 3, 63, 64, 65, 130};

TEST(BernoulliScheduleTest, RowsMatchPerEdgeRoundStreams) {
  for (const std::uint32_t n : kFormulaRingSizes) {
    for (const double p : {0.0, 0.3, 0.7, 1.0}) {
      const std::uint64_t seed = 1000 + n;
      const BernoulliSchedule s(Ring(n), p, seed);
      std::vector<Time> rounds = scrambled_rounds(200);
      // Rounds past 32 bits: the round enters the seed as a full word.
      rounds.insert(rounds.end(), {(Time{1} << 32) - 1, (Time{1} << 40) + 3});
      expect_rows_match(s, rounds, [&](EdgeId e, Time t) {
        Xoshiro256 rng(derive_seed(seed, e, t));
        return rng.next_bool(p);
      });
    }
  }
}

TEST(BoundedAbsenceTest, RowsMatchRunLengthDecoding) {
  const Time kRounds = 300;
  for (const std::uint32_t n : kFormulaRingSizes) {
    for (const auto& [max_absence, max_presence] :
         std::vector<std::pair<Time, Time>>{{1, 1}, {3, 5}, {6, 8}}) {
      const std::uint64_t seed = 2000 + n;
      // Runs alternate present / absent, starting present; edge e draws
      // each run's length, in order, from Xoshiro256(derive_seed(seed, e)).
      std::vector<std::vector<bool>> history(n);
      for (EdgeId e = 0; e < n; ++e) {
        Xoshiro256 rng(derive_seed(seed, e));
        bool present = true;
        while (history[e].size() < kRounds) {
          const Time length =
              1 + rng.next_below(present ? max_presence : max_absence);
          history[e].insert(history[e].end(), length, present);
          present = !present;
        }
      }
      const BoundedAbsenceSchedule s(Ring(n), max_absence, max_presence, seed);
      expect_rows_match(s, scrambled_rounds(kRounds), [&](EdgeId e, Time t) {
        return static_cast<bool>(history[e][static_cast<std::size_t>(t)]);
      });
    }
  }
}

}  // namespace
}  // namespace pef
