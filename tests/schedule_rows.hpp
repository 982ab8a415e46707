// Row checks shared by the schedule formula tests: a schedule's rows for a
// list of rounds, through all three query paths, against a per-(edge, round)
// definition written out in the test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic_graph/schedule.hpp"

namespace pef {

/// The rounds 0..count-1 in a scrambled order (stride 37 mod count, count
/// not a multiple of 37): every history row is first reached both ahead of
/// and behind rows already filled.
inline std::vector<Time> scrambled_rounds(Time count) {
  std::vector<Time> rounds;
  for (Time i = 0; i < count; ++i) rounds.push_back(i * 37 % count);
  return rounds;
}

/// Checks that edges_into_words (into a buffer of all ones, whose bits past
/// the last edge must come back clear), edges_into and edges_at all give
/// `present(e, t)` for every edge at every round of `rounds`, in that order.
/// Reports the first disagreement only.
template <typename Present>
void expect_rows_match(const EdgeSchedule& schedule,
                       const std::vector<Time>& rounds, Present&& present) {
  const std::uint32_t n = schedule.ring().edge_count();
  const std::uint32_t count = edge_word_count(n);
  for (const Time t : rounds) {
    std::vector<std::uint64_t> row(count, ~0ULL);
    schedule.edges_into_words(t, row.data());
    ASSERT_EQ(row[count - 1] & ~edge_tail_mask(n), 0u)
        << schedule.name() << " n=" << n << " t=" << t << ": tail bits set";
    EdgeSet into = EdgeSet::all(n);
    schedule.edges_into(t, into);
    const EdgeSet at = schedule.edges_at(t);
    for (EdgeId e = 0; e < n; ++e) {
      const bool want = present(e, t);
      const std::string where = schedule.name() + " n=" + std::to_string(n) +
                                " e=" + std::to_string(e) +
                                " t=" + std::to_string(t);
      ASSERT_EQ(((row[e >> 6] >> (e & 63)) & 1) != 0, want) << where;
      ASSERT_EQ(into.contains(e), want) << where << " (edges_into)";
      ASSERT_EQ(at.contains(e), want) << where << " (edges_at)";
    }
  }
}

}  // namespace pef
