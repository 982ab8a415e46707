#include "core/lemma41.hpp"

#include <algorithm>
#include <map>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "common/check.hpp"
#include "engine/engine.hpp"

namespace pef::lemma41 {

namespace {

constexpr std::uint32_t kMirrorRingSize = 8;

/// Reflection across the (0, 1) gluing edge of the 8-ring.
[[nodiscard]] NodeId mirror_node(NodeId x) {
  return (1 + kMirrorRingSize - x) % kMirrorRingSize;
}

[[nodiscard]] GlobalDirection apply_sign(GlobalDirection d, bool flip) {
  return flip ? opposite(d) : d;
}

}  // namespace

const char* to_string(Case c) {
  switch (c) {
    case Case::kStayedNeverMoved:
      return "i=f, a=i (never moved)";
    case Case::kStayedVisitedCw:
      return "i=f, a cw of i";
    case Case::kStayedVisitedCcw:
      return "i=f, a ccw of i";
    case Case::kEndedOnACw:
      return "f=a, a cw of i";
    case Case::kEndedOnACcw:
      return "f=a, a ccw of i";
  }
  return "?";
}

std::optional<PrefixSummary> extract_prefix(const Trace& trace, RobotId r1,
                                            Time t) {
  const Ring& ring = trace.ring();
  const std::uint32_t k = trace.initial_configuration().robot_count();
  PEF_CHECK(r1 < k);
  PEF_CHECK(t <= trace.length());

  // Precondition: no tower in configurations 0..t.
  for (Time tau = 0; tau <= t; ++tau) {
    for (RobotId a = 0; a < k; ++a) {
      for (RobotId b = a + 1; b < k; ++b) {
        if (trace.position_at(a, tau) == trace.position_at(b, tau)) {
          return std::nullopt;
        }
      }
    }
  }

  // Precondition: every robot visited at most two adjacent nodes, and the
  // ring is not fully explored.
  std::vector<bool> explored(ring.node_count(), false);
  for (RobotId r = 0; r < k; ++r) {
    std::vector<NodeId> visited;
    for (Time tau = 0; tau <= t; ++tau) {
      const NodeId u = trace.position_at(r, tau);
      explored[u] = true;
      if (std::find(visited.begin(), visited.end(), u) == visited.end()) {
        visited.push_back(u);
      }
    }
    if (visited.size() > 2) return std::nullopt;
    if (visited.size() == 2 && ring.distance(visited[0], visited[1]) != 1) {
      return std::nullopt;
    }
  }
  if (std::all_of(explored.begin(), explored.end(),
                  [](bool b) { return b; })) {
    return std::nullopt;
  }

  PrefixSummary prefix;
  prefix.t = t;
  prefix.i = trace.position_at(r1, 0);
  prefix.f = trace.position_at(r1, t);
  prefix.r1_chirality = trace.initial_configuration().robot(r1).chirality;

  NodeId other = prefix.i;
  for (Time tau = 0; tau <= t; ++tau) {
    const NodeId u = trace.position_at(r1, tau);
    if (u != prefix.i) other = u;
  }
  prefix.a = other == prefix.i ? prefix.i : other;

  if (prefix.a == prefix.i) {
    prefix.geometry = Case::kStayedNeverMoved;
  } else {
    const bool a_is_cw =
        ring.neighbour(prefix.i, GlobalDirection::kClockwise) == prefix.a;
    if (prefix.f == prefix.i) {
      prefix.geometry =
          a_is_cw ? Case::kStayedVisitedCw : Case::kStayedVisitedCcw;
    } else {
      PEF_CHECK(prefix.f == prefix.a);  // f != i implies f == a
      prefix.geometry = a_is_cw ? Case::kEndedOnACw : Case::kEndedOnACcw;
    }
  }

  prefix.neighbourhood.reserve(static_cast<std::size_t>(t));
  for (Time j = 0; j < t; ++j) {
    const EdgeSet& edges = trace.rounds()[static_cast<std::size_t>(j)].edges;
    NeighbourhoodRound round;
    round.r_i = edges.contains(
        ring.adjacent_edge(prefix.i, GlobalDirection::kClockwise));
    round.l_i = edges.contains(
        ring.adjacent_edge(prefix.i, GlobalDirection::kCounterClockwise));
    round.r_a = edges.contains(
        ring.adjacent_edge(prefix.a, GlobalDirection::kClockwise));
    round.l_a = edges.contains(
        ring.adjacent_edge(prefix.a, GlobalDirection::kCounterClockwise));
    prefix.neighbourhood.push_back(round);
  }
  return prefix;
}

Construction build(const PrefixSummary& prefix) {
  Construction c;
  c.ring = Ring(kMirrorRingSize);
  c.glue_edge = 0;  // connects nodes 0 (f'1) and 1 (f'2)
  c.f1 = 0;
  c.f2 = 1;

  // Per-case r1-side placement and the orientation sign: `flip` is true
  // when G's clockwise maps to G''s counter-clockwise on the r1 side.
  bool flip = false;
  switch (prefix.geometry) {
    case Case::kStayedNeverMoved:
      c.i1 = 0;
      c.a1 = 0;
      flip = false;
      break;
    case Case::kStayedVisitedCw:
      c.i1 = 0;
      c.a1 = 7;
      flip = true;  // a is cw of i in G, but 7 is ccw of 0 in G'
      break;
    case Case::kStayedVisitedCcw:
      c.i1 = 0;
      c.a1 = 7;
      flip = false;
      break;
    case Case::kEndedOnACw:
      c.i1 = 7;
      c.a1 = 0;
      flip = false;  // i -> a is cw in G and 7 -> 0 is cw in G'
      break;
    case Case::kEndedOnACcw:
      c.i1 = 7;
      c.a1 = 0;
      flip = true;
      break;
  }
  c.i2 = mirror_node(c.i1);
  c.a2 = mirror_node(c.a1);

  // Build the constrained prefix, one edge-set per round.  Constraints may
  // overlap (shared edges of adjacent constrained nodes, or across the
  // gluing edge); the geometry above guarantees overlapping constraints
  // carry the same value, which we assert.
  std::vector<EdgeSet> rounds;
  rounds.reserve(prefix.neighbourhood.size());
  for (const NeighbourhoodRound& nb : prefix.neighbourhood) {
    std::map<EdgeId, bool> constraints;
    auto constrain = [&](EdgeId e, bool present) {
      const auto [it, inserted] = constraints.emplace(e, present);
      PEF_CHECK_MSG(it->second == present,
                    "contradictory Lemma 4.1 edge constraints");
    };
    auto constrain_node = [&](NodeId node, bool mirrored, bool r_value,
                              bool l_value) {
      // r(x) is x's clockwise edge in G; on the r1 side it maps through
      // `flip`, on the r2 (mirrored) side through !flip.
      const bool side_flip = mirrored ? !flip : flip;
      constrain(c.ring.adjacent_edge(
                    node, apply_sign(GlobalDirection::kClockwise, side_flip)),
                r_value);
      constrain(c.ring.adjacent_edge(
                    node, apply_sign(GlobalDirection::kCounterClockwise,
                                     side_flip)),
                l_value);
    };
    constrain_node(c.i1, false, nb.r_i, nb.l_i);
    constrain_node(c.a1, false, nb.r_a, nb.l_a);
    constrain_node(c.i2, true, nb.r_i, nb.l_i);
    constrain_node(c.a2, true, nb.r_a, nb.l_a);

    EdgeSet set = EdgeSet::all(c.ring.edge_count());
    for (const auto& [edge, present] : constraints) {
      set.set(edge, present);
    }
    rounds.push_back(std::move(set));
  }

  auto recorded = std::make_shared<RecordedSchedule>(c.ring, std::move(rounds),
                                                     TailRule::kAllPresent);
  c.schedule = std::make_shared<EventualMissingEdgeSchedule>(
      recorded, c.glue_edge, /*vanish_time=*/prefix.t);

  const Chirality r1_chirality =
      flip ? prefix.r1_chirality.flipped() : prefix.r1_chirality;
  c.r1 = RobotPlacement{c.i1, r1_chirality};
  c.r2 = RobotPlacement{c.i2, r1_chirality.flipped()};
  return c;
}

MirrorReport replay_and_verify(const Construction& construction,
                               const AlgorithmPtr& algorithm,
                               const Trace& original_trace,
                               RobotId original_r1,
                               const PrefixSummary& prefix,
                               Time extra_rounds) {
  EngineOptions options;
  options.record_trace = true;
  Engine engine(construction.ring, algorithm,
                make_oblivious(construction.schedule),
                {construction.r1, construction.r2}, options);
  engine.run(prefix.t);
  // Snapshot the robot states exactly at time t (Claim 4 compares them).
  const KernelState state_r1_at_t = engine.robot_state(0);
  const KernelState state_r2_at_t = engine.robot_state(1);
  engine.run(extra_rounds);
  return verify_mirror(construction, engine.trace(), state_r1_at_t,
                       state_r2_at_t, original_trace, original_r1, prefix);
}

MirrorReport verify_mirror(const Construction& construction,
                           const Trace& mirrored,
                           const KernelState& state_r1_at_t,
                           const KernelState& state_r2_at_t,
                           const Trace& original_trace, RobotId original_r1,
                           const PrefixSummary& prefix) {
  MirrorReport report;
  const Time t = prefix.t;
  PEF_CHECK(mirrored.length() >= t);

  // Claim 1: mirror symmetry of positions and equality of local dirs at
  // every configuration time <= t.
  report.claim1_symmetry = true;
  for (Time tau = 0; tau <= t; ++tau) {
    if (mirrored.position_at(1, tau) !=
        mirror_node(mirrored.position_at(0, tau))) {
      report.claim1_symmetry = false;
      break;
    }
    if (tau < t) {
      const auto& round = mirrored.rounds()[static_cast<std::size_t>(tau)];
      if (round.robots[0].dir_after != round.robots[1].dir_after) {
        report.claim1_symmetry = false;
        break;
      }
    }
  }

  // Claim 2: odd distance / no tower up to time t.
  report.claim2_no_tower = true;
  for (Time tau = 0; tau <= t; ++tau) {
    const NodeId p0 = mirrored.position_at(0, tau);
    const NodeId p1 = mirrored.position_at(1, tau);
    const std::uint32_t cw_dist =
        (p1 + kMirrorRingSize - p0) % kMirrorRingSize;
    if (p0 == p1 || cw_dist % 2 == 0) {
      report.claim2_no_tower = false;
      break;
    }
  }

  // Claim 3: r1 replays its original action sequence (moved flags and local
  // dirs, round by round).
  report.claim3_replay = true;
  for (Time j = 0; j < t; ++j) {
    const auto& orig =
        original_trace.rounds()[static_cast<std::size_t>(j)].robots
            [original_r1];
    const auto& copy = mirrored.rounds()[static_cast<std::size_t>(j)].robots[0];
    if (orig.moved != copy.moved || orig.dir_after != copy.dir_after ||
        orig.dir_before != copy.dir_before) {
      report.claim3_replay = false;
      break;
    }
  }

  // Claim 4: at time t the robots stand on the glued pair (f'1, f'2), in
  // equal states (positions + local dirs + algorithm memory).
  const bool on_glue = mirrored.position_at(0, t) == construction.f1 &&
                       mirrored.position_at(1, t) == construction.f2;
  bool same_state = state_r1_at_t == state_r2_at_t;
  if (t > 0) {
    const auto& last = mirrored.rounds()[static_cast<std::size_t>(t - 1)];
    same_state =
        same_state && last.robots[0].dir_after == last.robots[1].dir_after;
  }
  report.claim4_adjacent = on_glue && same_state;

  // Post-t behaviour: how long both robots hold the glued extremities.
  report.post_hold_rounds = 0;
  for (Time tau = t + 1; tau <= mirrored.length(); ++tau) {
    if (mirrored.position_at(0, tau) == construction.f1 &&
        mirrored.position_at(1, tau) == construction.f2) {
      ++report.post_hold_rounds;
    } else {
      break;
    }
  }

  report.visited_nodes = analyze_coverage(mirrored).visited_node_count;
  return report;
}

}  // namespace pef::lemma41
