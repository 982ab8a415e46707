// Reference trace analyses: the straight-line, edge-major and map-based
// forms of the tower analysis and the connectivity audit, kept as test
// oracles for the one-pass production versions (analysis/towers.hpp,
// dynamic_graph/properties.hpp).  Built into pef_oracles next to the
// reference simulators; AnalysisOracleTest compares the two on traced runs
// and hand-built traces.
#pragma once

#include <vector>

#include "analysis/towers.hpp"
#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/ring.hpp"
#include "scheduler/trace.hpp"

namespace pef {

/// The trace's edge sets, one per round, copied out of its rows.
[[nodiscard]] std::vector<EdgeSet> reference_edge_rows(const Trace& trace);

/// Every maximal absence interval, scanning edge by edge over all rounds
/// (edge-major order, each edge's intervals in time order).
[[nodiscard]] std::vector<AbsenceInterval> reference_absence_intervals(
    const Ring& ring, const std::vector<EdgeSet>& rounds);

/// The connected-over-time audit built on reference_absence_intervals.
[[nodiscard]] ConnectivityAudit reference_audit_connectivity(
    const Ring& ring, const std::vector<EdgeSet>& rounds, Time patience);

/// The tower analysis that regroups every configuration time into a map
/// of node -> robots and tracks open towers in a map keyed by robot set.
[[nodiscard]] TowerReport reference_analyze_towers(const Trace& trace);

}  // namespace pef
