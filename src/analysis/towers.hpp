// Tower analysis: detection of the paper's towers (Section 2.2) and
// mechanical checks of the structural lemmas of Section 3.
//
// A tower T = (S, [ts, te]) is a maximal set S of >= 2 robots standing on
// one node over a maximal time interval.  For PEF_3+ the paper proves:
//   Lemma 3.3 — the two robots of a 2-tower consider opposite global
//               directions from the formation Compute onward;
//   Lemma 3.4 — no tower ever involves 3 or more robots.
// analyze_towers() extracts every maximal tower from a trace and evaluates
// both properties (they are reported, not assumed, so benches can show them
// *failing* for ablated algorithms).
//
// It is one forward pass over configuration times 0..length: a time at
// which no two robots share a node and no tower is open costs one O(k)
// occupancy check; otherwise the k (node, robot) pairs are sorted and the
// sharing sets are matched against the open towers, which are kept ordered
// by robot set.  Towers closing at one time are reported in robot-set
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "scheduler/trace.hpp"

namespace pef {

struct TowerEvent {
  NodeId node = 0;
  /// Configuration-time interval [start, end] (inclusive) during which the
  /// same robot set shared the node; end == trace length means the tower
  /// was still alive at the horizon.
  Time start = 0;
  Time end = 0;
  std::vector<RobotId> robots;

  [[nodiscard]] std::size_t size() const { return robots.size(); }
  [[nodiscard]] Time duration() const { return end - start + 1; }
};

struct TowerReport {
  std::vector<TowerEvent> towers;
  std::uint32_t max_tower_size = 0;
  Time max_tower_duration = 0;
  std::uint64_t tower_formation_count = 0;

  /// Lemma 3.4: no tower of 3+ robots anywhere in the trace.
  bool lemma_3_4_holds = true;

  /// Lemma 3.3: in every 2-tower, from its formation round onward the two
  /// robots consider opposite *global* directions while involved.
  bool lemma_3_3_holds = true;
};

[[nodiscard]] TowerReport analyze_towers(const Trace& trace);

}  // namespace pef
