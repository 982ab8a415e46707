// The Lemma 4.1 mirror construction (Figure 1 of the paper), executable.
//
// Context: Lemma 4.1 underpins Theorem 4.1 (two robots cannot explore
// connected-over-time rings of size >= 4).  Given an execution prefix of a
// 2-robot algorithm on a ring G in which, up to time t,
//   (i)   the whole ring has not been explored,
//   (ii)  no tower was formed,
//   (iii) each robot visited at most two adjacent nodes,
// the proof builds an 8-node ring G' containing *two mirror copies* of
// robot r1's visited neighbourhood glued along the edge (f'1, f'2), places
// r1 and a second robot with opposite chirality symmetrically, and replays.
// The claims (proved in the paper, mechanically checked here):
//
//   Claim 1 - the two robots act symmetrically at every round <= t;
//   Claim 2 - they stay at odd distance, hence never form a tower;
//   Claim 3 - r1's action sequence in ε' equals its sequence in ε;
//   Claim 4 - at time t they stand on the adjacent nodes f'1, f'2, in the
//             same state s.
//
// Afterwards the gluing edge is removed forever: each robot faces
// OneEdge(f'_i, t, +inf), and an algorithm whose robots camp under OneEdge
// explores only <= 6 of the 8 nodes — the contradiction the proof needs.
//
// Figure 1 distinguishes five placements of (i, f, a) — r1's start node i,
// its node f at time t, and the second node a it may have visited (a = i
// when r1 never moved).  We reproduce all five.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "dynamic_graph/schedules.hpp"
#include "robot/algorithm.hpp"
#include "robot/kernel.hpp"
#include "robot/robot.hpp"
#include "scheduler/trace.hpp"

namespace pef::lemma41 {

/// The five (i, f, a) geometries of Figure 1.
enum class Case : std::uint8_t {
  kStayedNeverMoved,   // f == i, a == i         (|R| = 1)
  kStayedVisitedCw,    // f == i, a cw of i      (went and came back)
  kStayedVisitedCcw,   // f == i, a ccw of i
  kEndedOnACw,         // f == a, a cw of i      (moved and stayed there)
  kEndedOnACcw,        // f == a, a ccw of i
};

[[nodiscard]] const char* to_string(Case c);

/// Presence of the four constrained edges of G at one round, in global
/// terms: r(i), l(i), r(a), l(a) — clockwise / counter-clockwise adjacent
/// edges of nodes i and a.  (When a == i the last two entries must equal
/// the first two.)
struct NeighbourhoodRound {
  bool r_i = true;
  bool l_i = true;
  bool r_a = true;
  bool l_a = true;
};

/// Everything extracted from an original execution prefix that the
/// construction needs.
struct PrefixSummary {
  Case geometry = Case::kStayedNeverMoved;
  Time t = 0;                       // prefix length
  NodeId i = 0, a = 0, f = 0;       // r1's nodes in G
  std::vector<NeighbourhoodRound> neighbourhood;  // one entry per round < t
  Chirality r1_chirality{true};
};

/// Extracts a PrefixSummary for robot `r1` from rounds [0, t) of `trace`,
/// verifying the Lemma's preconditions: no tower before t, r1 visited at
/// most two adjacent nodes, the ring not fully explored.  Returns nullopt
/// when a precondition fails.
[[nodiscard]] std::optional<PrefixSummary> extract_prefix(const Trace& trace,
                                                          RobotId r1, Time t);

/// The constructed 8-node evolving ring G' plus the mirrored placements.
struct Construction {
  Ring ring{8};
  SchedulePtr schedule;  // mirrored prefix, then all-present minus the glue
  RobotPlacement r1;     // starts on i'1
  RobotPlacement r2;     // starts on i'2 = mirror(i'1), opposite chirality

  // Node images (for reporting / assertions).
  NodeId i1 = 0, a1 = 0, f1 = 0;
  NodeId i2 = 0, a2 = 0, f2 = 0;
  EdgeId glue_edge = 0;  // (f'1, f'2), removed forever from time t on
};

/// Builds G' from a prefix summary (the paper's Figure 1 construction).
[[nodiscard]] Construction build(const PrefixSummary& prefix);

/// Result of replaying an algorithm on the construction and checking the
/// paper's four claims plus the post-t holding behaviour.
struct MirrorReport {
  bool claim1_symmetry = false;
  bool claim2_no_tower = false;
  bool claim3_replay = false;
  bool claim4_adjacent = false;

  /// Rounds (of `extra_rounds`) both robots spent on f'1 / f'2 after t.
  Time post_hold_rounds = 0;
  /// Distinct nodes of G' visited during the whole mirrored run.
  std::uint32_t visited_nodes = 0;

  [[nodiscard]] bool all_claims() const {
    return claim1_symmetry && claim2_no_tower && claim3_replay &&
           claim4_adjacent;
  }

  [[nodiscard]] bool operator==(const MirrorReport&) const = default;
};

/// Replays `algorithm` on `construction` for prefix.t + extra_rounds rounds
/// on a traced Engine and mechanically verifies Claims 1-4 against the
/// original trace (verify_mirror).
[[nodiscard]] MirrorReport replay_and_verify(const Construction& construction,
                                             const AlgorithmPtr& algorithm,
                                             const Trace& original_trace,
                                             RobotId original_r1,
                                             const PrefixSummary& prefix,
                                             Time extra_rounds);

/// Claims 1-4 and the post-t hold, checked on `mirrored`: a run of at least
/// prefix.t rounds on `construction`, whose rounds past prefix.t form the
/// post-t window.  `state_r1_at_t` / `state_r2_at_t` are the two robots'
/// algorithm memories at time prefix.t (Claim 4 compares them).
[[nodiscard]] MirrorReport verify_mirror(const Construction& construction,
                                         const Trace& mirrored,
                                         const KernelState& state_r1_at_t,
                                         const KernelState& state_r2_at_t,
                                         const Trace& original_trace,
                                         RobotId original_r1,
                                         const PrefixSummary& prefix);

}  // namespace pef::lemma41
