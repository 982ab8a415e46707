// Evolving-graph property checkers (Section 2.1 of the paper).
//
// Infinite-horizon notions (recurrent edge, eventual underlying graph,
// connected-over-time) are audited over a finite observation window: an edge
// is *suspected eventually-missing* if it is absent over a suffix of the
// window longer than a caller-supplied patience.  Exact answers are
// available for schedule families that expose their structure (e.g.
// EventualMissingEdgeSchedule), and the audit is used by benches to certify
// that adaptive adversaries stayed legal on the realized prefix.
//
// Every audit is one forward pass over the window's rows: each round's
// absent-edge words are compared with the previous round's, and only the
// edges that appeared or vanished are touched.  A traced run is audited
// straight from its Trace rows (audit_connectivity(trace, patience)).
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/schedule.hpp"

namespace pef {

class Trace;

/// Union of all edge sets over [0, horizon): the (observed) underlying graph
/// edge set E_G restricted to the window.
[[nodiscard]] EdgeSet observed_underlying_edges(const EdgeSchedule& schedule,
                                                Time horizon);

/// One maximal absence interval [from, to] (inclusive) of one edge.
struct AbsenceInterval {
  EdgeId edge = kInvalidEdge;
  Time from = 0;
  Time to = 0;
  /// True when the interval was still open at the end of the window (the
  /// edge may be eventually missing).
  bool open_at_horizon = false;

  friend bool operator==(const AbsenceInterval&,
                         const AbsenceInterval&) = default;
};

/// All maximal absence intervals of every edge over [0, horizon).
[[nodiscard]] std::vector<AbsenceInterval> absence_intervals(
    const EdgeSchedule& schedule, Time horizon);

/// Result of the connected-over-time audit of a finite window.
struct ConnectivityAudit {
  /// Edges absent for the whole suffix of the window of length >= patience.
  std::vector<EdgeId> suspected_missing;
  /// Longest closed absence interval seen (a dynamicity measure).
  Time max_closed_absence = 0;
  /// True iff removing every suspected-missing edge still leaves the
  /// (observed) underlying graph connected — for a ring: at most one
  /// suspected-missing edge, and every other edge present at least once.
  bool connected_over_time = false;
};

/// Audits the window [0, horizon).  `patience` is the suffix length beyond
/// which an absent edge is suspected to be eventually missing.
[[nodiscard]] ConnectivityAudit audit_connectivity(
    const EdgeSchedule& schedule, Time horizon, Time patience);

/// Same audit over an explicit sequence of edge sets, one per round.
[[nodiscard]] ConnectivityAudit audit_connectivity(
    const Ring& ring, const std::vector<EdgeSet>& rounds, Time patience);

/// Same audit over a traced run's edge sets, read in place from its rows
/// (used for adaptive adversaries, whose choices are a function of the
/// execution).
[[nodiscard]] ConnectivityAudit audit_connectivity(const Trace& trace,
                                                   Time patience);

/// The paper's OneEdge(u, t, t') predicate: one adjacent edge of `u` is
/// continuously missing from `t` to `t'` while the other adjacent edge of
/// `u` is continuously present from `t` to `t'` (bounds inclusive).
[[nodiscard]] bool one_edge(const EdgeSchedule& schedule, NodeId u, Time t,
                            Time t_prime);

/// Which adjacent edge of `u` is the continuously-present one if
/// OneEdge(u, t, t') holds; nullopt otherwise.
[[nodiscard]] std::optional<EdgeId> one_edge_present_side(
    const EdgeSchedule& schedule, NodeId u, Time t, Time t_prime);

}  // namespace pef
