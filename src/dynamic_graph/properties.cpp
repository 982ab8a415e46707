#include "dynamic_graph/properties.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "scheduler/trace.hpp"

namespace pef {

EdgeSet observed_underlying_edges(const EdgeSchedule& schedule, Time horizon) {
  EdgeSet acc(schedule.ring().edge_count());
  for (Time t = 0; t < horizon; ++t) acc |= schedule.edges_at(t);
  return acc;
}

namespace {

/// The one absence scan behind every audit.  Rows arrive in time order; each
/// row's absent-edge words are compared with the previous row's, and only
/// the bits that changed are visited, so a round costs one pass over its
/// words plus one step per edge that appeared or vanished.  One run start
/// per currently-absent edge and an ever-present plane are all the state
/// kept.
class AbsenceScanner {
 public:
  /// `intervals`, when non-null, receives every maximal absence interval in
  /// the order it ends (closed intervals as they close, open ones last).
  explicit AbsenceScanner(std::uint32_t edge_count,
                          std::vector<AbsenceInterval>* intervals = nullptr)
      : edge_count_(edge_count),
        tail_(edge_count == 0 ? 0 : edge_tail_mask(edge_count)),
        absent_(edge_word_count(edge_count), 0),
        ever_present_(edge_word_count(edge_count), 0),
        run_start_(edge_count, 0),
        intervals_(intervals) {}

  /// Round `rounds()`'s present edges.
  void feed(const EdgeSet& row) {
    PEF_CHECK(row.edge_count() == edge_count_);
    const std::uint64_t* present = row.words();
    const Time t = rounds_;
    const auto words = static_cast<std::uint32_t>(absent_.size());
    for (std::uint32_t w = 0; w < words; ++w) {
      const std::uint64_t mask = w + 1 == words ? tail_ : ~0ULL;
      const std::uint64_t now_absent = ~present[w] & mask;
      ever_present_[w] |= present[w] & mask;
      // Closings and openings are visited in two loops rather than one loop
      // branching on each bit's direction: on stochastic rows that branch
      // is a coin flip and mispredicts about half the time.
      const std::uint64_t was_absent = absent_[w];
      for (std::uint64_t closed = was_absent & ~now_absent; closed != 0;
           closed &= closed - 1) {
        const EdgeId e = w * 64 + static_cast<EdgeId>(__builtin_ctzll(closed));
        max_closed_absence_ = std::max(max_closed_absence_, t - run_start_[e]);
        if (intervals_ != nullptr) {
          intervals_->push_back(
              AbsenceInterval{e, run_start_[e], t - 1, false});
        }
      }
      for (std::uint64_t opened = now_absent & ~was_absent; opened != 0;
           opened &= opened - 1) {
        run_start_[w * 64 + static_cast<EdgeId>(__builtin_ctzll(opened))] = t;
      }
      absent_[w] = now_absent;
    }
    ++rounds_;
  }

  /// Closes the window: records the intervals still open at the horizon and
  /// returns the audit for `patience`.
  ConnectivityAudit finish(Time patience) {
    ConnectivityAudit audit;
    audit.max_closed_absence = max_closed_absence_;
    // Edges never present during the window are one open interval of
    // length horizon, so they are suspected too once horizon >= patience.
    std::uint32_t missing_or_silent = 0;
    const auto words = static_cast<std::uint32_t>(absent_.size());
    for (std::uint32_t w = 0; w < words; ++w) {
      const std::uint64_t mask = w + 1 == words ? tail_ : ~0ULL;
      std::uint64_t suspected = 0;
      for (std::uint64_t open = absent_[w]; open != 0; open &= open - 1) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(open));
        const EdgeId e = w * 64 + bit;
        if (rounds_ - run_start_[e] >= patience) {
          audit.suspected_missing.push_back(e);
          suspected |= 1ULL << bit;
        }
        if (intervals_ != nullptr) {
          intervals_->push_back(
              AbsenceInterval{e, run_start_[e], rounds_ - 1, true});
        }
      }
      const std::uint64_t silent = ~ever_present_[w] & mask;
      missing_or_silent +=
          static_cast<std::uint32_t>(__builtin_popcountll(suspected | silent));
    }
    // Connectivity of the eventual underlying graph restricted to the window:
    // a ring stays connected after removing at most one edge, provided every
    // remaining edge showed up at least once.
    audit.connected_over_time = missing_or_silent <= 1 && rounds_ > 0;
    return audit;
  }

 private:
  std::uint32_t edge_count_;
  std::uint64_t tail_;
  std::vector<std::uint64_t> absent_;
  std::vector<std::uint64_t> ever_present_;
  std::vector<Time> run_start_;
  std::vector<AbsenceInterval>* intervals_;
  Time rounds_ = 0;
  Time max_closed_absence_ = 0;
};

/// Feeds rounds [0, horizon) of `schedule` to `scanner`.
void scan_schedule(const EdgeSchedule& schedule, Time horizon,
                   AbsenceScanner& scanner) {
  EdgeSet row(schedule.ring().edge_count());
  for (Time t = 0; t < horizon; ++t) {
    schedule.edges_into(t, row);
    scanner.feed(row);
  }
}

}  // namespace

std::vector<AbsenceInterval> absence_intervals(const EdgeSchedule& schedule,
                                               Time horizon) {
  std::vector<AbsenceInterval> out;
  AbsenceScanner scanner(schedule.ring().edge_count(), &out);
  scan_schedule(schedule, horizon, scanner);
  (void)scanner.finish(horizon);
  // Each edge's intervals were emitted in time order; list them edge-major.
  std::stable_sort(out.begin(), out.end(),
                   [](const AbsenceInterval& a, const AbsenceInterval& b) {
                     return a.edge < b.edge;
                   });
  return out;
}

ConnectivityAudit audit_connectivity(const EdgeSchedule& schedule,
                                     Time horizon, Time patience) {
  AbsenceScanner scanner(schedule.ring().edge_count());
  scan_schedule(schedule, horizon, scanner);
  return scanner.finish(patience);
}

ConnectivityAudit audit_connectivity(const Ring& ring,
                                     const std::vector<EdgeSet>& rounds,
                                     Time patience) {
  AbsenceScanner scanner(ring.edge_count());
  for (const EdgeSet& row : rounds) scanner.feed(row);
  return scanner.finish(patience);
}

ConnectivityAudit audit_connectivity(const Trace& trace, Time patience) {
  AbsenceScanner scanner(trace.ring().edge_count());
  for (const RoundRecord& round : trace.rounds()) scanner.feed(round.edges);
  return scanner.finish(patience);
}

bool one_edge(const EdgeSchedule& schedule, NodeId u, Time t, Time t_prime) {
  return one_edge_present_side(schedule, u, t, t_prime).has_value();
}

std::optional<EdgeId> one_edge_present_side(const EdgeSchedule& schedule,
                                            NodeId u, Time t, Time t_prime) {
  PEF_CHECK(t <= t_prime);
  const Ring& ring = schedule.ring();
  const EdgeId cw = ring.adjacent_edge(u, GlobalDirection::kClockwise);
  const EdgeId ccw = ring.adjacent_edge(u, GlobalDirection::kCounterClockwise);

  bool cw_always_present = true;
  bool cw_always_absent = true;
  bool ccw_always_present = true;
  bool ccw_always_absent = true;
  for (Time i = t; i <= t_prime; ++i) {
    const EdgeSet s = schedule.edges_at(i);
    if (s.contains(cw)) {
      cw_always_absent = false;
    } else {
      cw_always_present = false;
    }
    if (s.contains(ccw)) {
      ccw_always_absent = false;
    } else {
      ccw_always_present = false;
    }
  }
  if (cw_always_present && ccw_always_absent) return cw;
  if (ccw_always_present && cw_always_absent) return ccw;
  return std::nullopt;
}

}  // namespace pef
