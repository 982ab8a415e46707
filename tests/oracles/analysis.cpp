#include "oracles/analysis.hpp"

#include <algorithm>
#include <map>

namespace pef {

std::vector<EdgeSet> reference_edge_rows(const Trace& trace) {
  std::vector<EdgeSet> rows;
  rows.reserve(trace.rounds().size());
  for (const RoundRecord& round : trace.rounds()) rows.push_back(round.edges);
  return rows;
}

std::vector<AbsenceInterval> reference_absence_intervals(
    const Ring& ring, const std::vector<EdgeSet>& rounds) {
  std::vector<AbsenceInterval> out;
  const Time horizon = rounds.size();
  for (EdgeId e = 0; e < ring.edge_count(); ++e) {
    bool open = false;
    Time open_since = 0;
    for (Time t = 0; t < horizon; ++t) {
      const bool present = rounds[static_cast<std::size_t>(t)].contains(e);
      if (!present && !open) {
        open = true;
        open_since = t;
      } else if (present && open) {
        out.push_back(AbsenceInterval{e, open_since, t - 1, false});
        open = false;
      }
    }
    if (open) {
      out.push_back(AbsenceInterval{e, open_since, horizon - 1, true});
    }
  }
  return out;
}

ConnectivityAudit reference_audit_connectivity(
    const Ring& ring, const std::vector<EdgeSet>& rounds, Time patience) {
  ConnectivityAudit audit;
  const Time horizon = rounds.size();
  const std::vector<AbsenceInterval> intervals =
      reference_absence_intervals(ring, rounds);

  EdgeSet ever_present(ring.edge_count());
  for (const EdgeSet& s : rounds) ever_present |= s;

  for (const AbsenceInterval& iv : intervals) {
    const Time length = iv.to - iv.from + 1;
    if (iv.open_at_horizon && length >= patience) {
      audit.suspected_missing.push_back(iv.edge);
    } else if (!iv.open_at_horizon) {
      audit.max_closed_absence = std::max(audit.max_closed_absence, length);
    }
  }
  // Edges never present during the window are one open interval of length
  // horizon, so they are suspected once horizon >= patience.

  // A ring stays connected after removing at most one edge, provided every
  // remaining edge showed up at least once.
  std::uint32_t missing_or_silent = 0;
  for (EdgeId e = 0; e < ring.edge_count(); ++e) {
    const bool suspected =
        std::find(audit.suspected_missing.begin(),
                  audit.suspected_missing.end(),
                  e) != audit.suspected_missing.end();
    if (suspected || !ever_present.contains(e)) ++missing_or_silent;
  }
  audit.connected_over_time = missing_or_silent <= 1 && horizon > 0;
  return audit;
}

namespace {

/// Robots grouped by node at configuration time `t`.
std::map<NodeId, std::vector<RobotId>> groups_at(const Trace& trace, Time t) {
  std::map<NodeId, std::vector<RobotId>> groups;
  const std::uint32_t k = trace.initial_configuration().robot_count();
  for (RobotId r = 0; r < k; ++r) {
    groups[trace.position_at(r, t)].push_back(r);
  }
  for (auto it = groups.begin(); it != groups.end();) {
    it = it->second.size() < 2 ? groups.erase(it) : std::next(it);
  }
  return groups;
}

/// Considered (global) direction of robot `r` after the Compute phase of
/// round `t`.
GlobalDirection considered_after_compute(const Trace& trace, RobotId r,
                                         Time t) {
  const RobotRoundRecord& rec =
      trace.rounds()[static_cast<std::size_t>(t)].robots[r];
  const Chirality chirality =
      trace.initial_configuration().robot(r).chirality;
  return chirality.to_global(rec.dir_after);
}

}  // namespace

TowerReport reference_analyze_towers(const Trace& trace) {
  TowerReport report;
  const Time horizon = trace.length();

  // Open towers keyed by their robot set; the recorded node is the
  // formation node.
  struct Open {
    std::vector<RobotId> robots;
    Time start;
    NodeId formed_at;
  };
  std::map<std::vector<RobotId>, Open> open;

  auto close = [&](const Open& tower, Time end) {
    TowerEvent event;
    event.node = tower.formed_at;
    event.start = tower.start;
    event.end = end;
    event.robots = tower.robots;
    report.max_tower_size =
        std::max(report.max_tower_size,
                 static_cast<std::uint32_t>(event.robots.size()));
    report.max_tower_duration =
        std::max(report.max_tower_duration, event.duration());
    if (event.robots.size() >= 3) report.lemma_3_4_holds = false;

    if (event.robots.size() == 2 && horizon > 0 && event.start < horizon) {
      const Time last_round = std::min(event.end, horizon - 1);
      for (Time t = event.start; t <= last_round; ++t) {
        const GlobalDirection a =
            considered_after_compute(trace, event.robots[0], t);
        const GlobalDirection b =
            considered_after_compute(trace, event.robots[1], t);
        if (a == b) {
          report.lemma_3_3_holds = false;
          break;
        }
      }
    }
    report.towers.push_back(std::move(event));
  };

  for (Time t = 0; t <= horizon; ++t) {
    const auto groups = groups_at(trace, t);
    std::map<std::vector<RobotId>, NodeId> sets_now;
    for (const auto& [node, robots] : groups) sets_now.emplace(robots, node);

    for (auto it = open.begin(); it != open.end();) {
      if (!sets_now.contains(it->first)) {
        close(it->second, t - 1);
        it = open.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [robots, node] : sets_now) {
      if (!open.contains(robots)) {
        open.emplace(robots, Open{robots, t, node});
        ++report.tower_formation_count;
      }
    }
  }
  for (const auto& [robots, tower] : open) close(tower, horizon);

  return report;
}

}  // namespace pef
