#include "analysis/towers.hpp"

#include <algorithm>

namespace pef {

namespace {

/// Considered (global) direction of robot `r` after the Compute phase of
/// round `t` — i.e. its dir in configuration t+1 and during the Move of t.
GlobalDirection considered_after_compute(const Trace& trace, RobotId r,
                                         Time t) {
  const RobotRoundRecord& rec =
      trace.rounds()[static_cast<std::size_t>(t)].robots[r];
  const Chirality chirality =
      trace.initial_configuration().robot(r).chirality;
  return chirality.to_global(rec.dir_after);
}

/// A tower still alive at the current configuration time.  The recorded
/// node is the formation node (a tower follows its robot set, which may
/// move together across nodes, e.g. two same-direction robots travelling
/// as a pair).
struct OpenTower {
  std::vector<RobotId> robots;  // ascending
  Time start = 0;
  NodeId formed_at = 0;
};

/// Robots sharing one node at the current configuration time: the range
/// [begin, end) of the (node, robot)-sorted occupancy keys, and the index
/// of the open tower with exactly this robot set, if any.
struct Group {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::int64_t carried = -1;
};

/// Occupancy keys: node << 32 | robot, so sorting groups robots by node.
std::uint64_t occupancy_key(NodeId node, RobotId r) {
  return static_cast<std::uint64_t>(node) << 32 | r;
}
NodeId node_of(std::uint64_t key) { return static_cast<NodeId>(key >> 32); }
RobotId robot_of(std::uint64_t key) {
  return static_cast<RobotId>(key & 0xffffffffULL);
}

}  // namespace

TowerReport analyze_towers(const Trace& trace) {
  TowerReport report;
  const Time horizon = trace.length();
  const Configuration& initial = trace.initial_configuration();
  const std::uint32_t k = initial.robot_count();

  auto close = [&](OpenTower& tower, Time end) {
    TowerEvent event;
    event.node = tower.formed_at;
    event.start = tower.start;
    event.end = end;
    event.robots = std::move(tower.robots);
    report.max_tower_size =
        std::max(report.max_tower_size,
                 static_cast<std::uint32_t>(event.robots.size()));
    report.max_tower_duration =
        std::max(report.max_tower_duration, event.duration());
    if (event.robots.size() >= 3) report.lemma_3_4_holds = false;

    if (event.robots.size() == 2 && horizon > 0 && event.start < horizon) {
      // Lemma 3.3: opposite global directions after every Compute executed
      // while the tower exists (rounds start .. min(end, horizon-1)).
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

  // Towers alive at one time have disjoint robot sets, so ordering them by
  // robot set is ordering them by their smallest robot.  Both lists below
  // keep that order, which is also the order towers closing at the same
  // time are reported in.
  std::vector<OpenTower> open;
  std::vector<OpenTower> next;
  std::vector<Group> groups;
  std::vector<std::uint64_t> keys(k);
  // seen[u] == t + 1 iff some robot stands on u at time t.
  std::vector<Time> seen(trace.ring().node_count(), 0);

  for (Time t = 0; t <= horizon; ++t) {
    bool shared = false;
    for (RobotId r = 0; r < k; ++r) {
      const NodeId node =
          t == 0 ? initial.robot(r).node
                 : trace.rounds()[static_cast<std::size_t>(t - 1)]
                       .robots[r]
                       .node_after;
      shared |= seen[node] == t + 1;
      seen[node] = t + 1;
      keys[r] = occupancy_key(node, r);
    }
    if (!shared && open.empty()) continue;

    // Robot sets sharing a node right now, ordered by smallest robot.
    groups.clear();
    if (shared) {
      std::sort(keys.begin(), keys.end());
      for (std::uint32_t i = 0; i < k;) {
        std::uint32_t j = i + 1;
        while (j < k && node_of(keys[j]) == node_of(keys[i])) ++j;
        if (j - i >= 2) groups.push_back(Group{i, j});
        i = j;
      }
      std::sort(groups.begin(), groups.end(),
                [&](const Group& a, const Group& b) {
                  return robot_of(keys[a.begin]) < robot_of(keys[b.begin]);
                });
    }

    // Close towers whose exact robot set no longer shares a node (a
    // membership change closes the old set here and starts a fresh maximal
    // interval below); the others carry over to their group.
    std::size_t g = 0;
    for (std::size_t o = 0; o < open.size(); ++o) {
      const std::vector<RobotId>& robots = open[o].robots;
      while (g < groups.size() &&
             robot_of(keys[groups[g].begin]) < robots.front()) {
        ++g;
      }
      if (g < groups.size() &&
          groups[g].end - groups[g].begin == robots.size() &&
          std::equal(robots.begin(), robots.end(),
                     keys.begin() + groups[g].begin,
                     [](RobotId r, std::uint64_t key) {
                       return r == robot_of(key);
                     })) {
        groups[g].carried = static_cast<std::int64_t>(o);
      } else {
        close(open[o], t - 1);
      }
    }
    next.clear();
    for (const Group& group : groups) {
      if (group.carried >= 0) {
        next.push_back(
            std::move(open[static_cast<std::size_t>(group.carried)]));
        continue;
      }
      OpenTower tower;
      tower.robots.reserve(group.end - group.begin);
      for (std::uint32_t i = group.begin; i < group.end; ++i) {
        tower.robots.push_back(robot_of(keys[i]));
      }
      tower.start = t;
      tower.formed_at = node_of(keys[group.begin]);
      next.push_back(std::move(tower));
      ++report.tower_formation_count;
    }
    open.swap(next);
  }
  // Close whatever is still open at the horizon.
  for (OpenTower& tower : open) close(tower, horizon);

  return report;
}

}  // namespace pef
