// The kernels of every registry algorithm: the one definition of each
// robot rule.
//
// kernel_compute is the enum-dispatched Compute phase.  The engines inline
// its compile-time form into their round loops; the reference simulators
// call its runtime form (one with_kernel_id switch per robot).  Each case
// reads the Look-phase View, may flip `dir`, and updates the robot's POD
// KernelState.  The paper's text for each rule sits on its case below, and
// tests/kernels_test.cpp pins every case to a truth table written out by
// hand from that text.
//
// When adding a registry algorithm: add a KernelId, a case here, a truth
// table in tests/kernels_test.cpp and a row in algorithms/registry.cpp.  The
// differential tests iterate algorithm_names(), so the engine-vs-oracle
// sweeps pick the new kernel up automatically.
#pragma once

#include "common/rng.hpp"
#include "robot/kernel.hpp"
#include "robot/view.hpp"

namespace pef {

/// Fresh kernel memory for one robot.  Only random-walk needs `robot`: it
/// derives an independent per-robot stream (paper algorithms ignore the
/// index — robots are anonymous and uniform).  `State` is KernelState or any
/// structurally-equivalent accessor (see kernel_compute).
template <typename State>
inline void init_kernel_state(const KernelSpec& spec, RobotId robot,
                              State&& state) {
  state.counter = 0;
  state.has_moved = 0;
  if (spec.id == KernelId::kRandomWalk) {
    state.rng = Xoshiro256(derive_seed(spec.seed, robot, 0x72777761));
  }
}

/// The Compute phase — compile-time form.  The KernelId is a template
/// parameter so the engine can instantiate its whole round loop per kernel
/// and the compiler inlines the branch-free residue straight into the loop
/// body (dispatch happens once per round, not per robot).  `State` only
/// needs KernelState's field names: Engine passes KernelState itself,
/// BatchEngine passes a proxy of references into its per-field state planes
/// (a robot's kernel memory lives replica-strided there, and field planes
/// keep the hot byte — pef3+'s has_moved — contiguous for the vectorizer
/// instead of strided across 48-byte structs).  `view` is the Look-phase
/// snapshot taken with the *incoming* value of `dir`, in the robot's local
/// frame.
template <KernelId Id, typename State>
inline void kernel_compute(const KernelSpec& spec, const View& view,
                           LocalDirection& dir, State&& s) {
  if constexpr (Id == KernelId::kKeepDirection) {
    // Baseline (non-paper), Rule 1 alone: never turn.  Explores static and
    // recurrent rings (absent a meeting) but is defeated by a single
    // eventual missing edge.
    (void)spec, (void)view, (void)dir, (void)s;
  } else if constexpr (Id == KernelId::kBounce || Id == KernelId::kPef1) {
    // PEF_1 — Section 5.2: perpetual exploration of connected-over-time
    // rings of exactly 2 nodes with a single robot.
    //
    //   "As soon as at least one adjacent edge to the current node of the
    //   robot is present, its variable dir points arbitrarily to one of
    //   these edges."
    //
    // Our deterministic instantiation of "arbitrarily": keep the current
    // direction when its edge is present (or when no edge is present),
    // otherwise point to the other side.  Both nodes of a 2-ring are
    // adjacent through every edge, so any choice of a present edge moves
    // the robot to the other node.
    //
    // Bounce (baseline, non-paper) is the same rule read as a "wall bounce"
    // heuristic on any ring: turn back whenever the pointed edge is absent
    // and the other is present.  It livelocks between the two extremities
    // of an eventual missing edge without ever crossing the far side.
    if (!view.exists_edge_ahead && view.exists_edge_behind) {
      dir = opposite(dir);
    }
  } else if constexpr (Id == KernelId::kPef2) {
    // PEF_2 — Section 4.2: perpetual exploration of connected-over-time
    // rings of exactly 3 nodes with 2 robots.
    //
    //   "Each robot disposes only of its dir variable.  If at a time t, a
    //   robot is isolated on a node with only one adjacent edge, then it
    //   points to this edge.  Otherwise (i.e., none of the adjacent edges
    //   is present, both adjacent edges are present, or the other robot is
    //   present on the same node), the robot keeps its current direction."
    if (!view.other_robots_on_node &&
        view.exists_edge_ahead != view.exists_edge_behind) {
      if (!view.exists_edge_ahead) dir = opposite(dir);  // the unique edge
    }
  } else if constexpr (Id == KernelId::kPef3Plus) {
    // PEF_3+ — Algorithm 1 (Section 3): perpetual exploration in FSYNC
    // with k >= 3 robots on any connected-over-time ring of n > k nodes.
    //
    //   1: if HasMovedPreviousStep and ExistsOtherRobotsOnCurrentNode() then
    //   2:   dir <- opposite(dir)
    //   3: end if
    //   4: HasMovedPreviousStep <- ExistsEdge(dir)
    //
    // which encodes the paper's three rules:
    //   Rule 1 - a robot keeps its direction while not involved in a tower;
    //   Rule 2 - a robot that did NOT move and finds itself in a tower
    //            keeps its direction (it becomes/remains a *sentinel* at an
    //            eventual missing edge extremity);
    //   Rule 3 - a robot that moved onto a tower turns back (the sentinel
    //            "signals" the explorer that it reached an extremity).
    //
    // Line 4 reads `dir` after the possible flip.  The View is expressed
    // relative to the incoming dir, so a flipped robot reads the other
    // side.  Because an FSYNC round is fully synchronous, the edge set seen
    // at Look time is the one used at Move time, so HasMovedPreviousStep is
    // exactly "I will move this round".
    bool ahead_is_incoming_dir = true;
    if (s.has_moved != 0 && view.other_robots_on_node) {
      dir = opposite(dir);  // Rule 3: arrived onto a tower -> turn back
      ahead_is_incoming_dir = false;
    }
    s.has_moved = view.exists_edge(ahead_is_incoming_dir) ? 1 : 0;
  } else if constexpr (Id == KernelId::kPef3PlusNoRule2) {
    // Ablation of PEF_3+ showing Rule 2 is necessary: drop the
    // HasMovedPreviousStep guard, so a robot in a tower turns back even
    // when it did NOT move.  A sentinel standing at an eventual missing
    // edge extremity abandons its post as soon as an explorer arrives, so
    // the extremity loses its marker and the ring's far side can starve.
    bool ahead_is_incoming_dir = true;
    if (view.other_robots_on_node) {  // no HasMoved guard: Rule 2 dropped
      dir = opposite(dir);
      ahead_is_incoming_dir = false;
    }
    s.has_moved = view.exists_edge(ahead_is_incoming_dir) ? 1 : 0;
  } else if constexpr (Id == KernelId::kPef3PlusNoRule3) {
    // Ablation of PEF_3+ showing Rule 3 is necessary: drop the turn
    // entirely, so robots never change direction.  Behaviourally identical
    // to keep-direction (the only direction change in PEF_3+ is the tower
    // turn), kept distinct so ablation benches read naturally; it still
    // maintains HasMovedPreviousStep like the real algorithm.
    s.has_moved = view.exists_edge_ahead ? 1 : 0;  // never turns
  } else if constexpr (Id == KernelId::kOscillating) {
    // Baseline (non-paper): turn back every `period` rounds regardless of
    // the environment — the canonical "patrol a segment" strategy.
    if (++s.counter >= spec.period) {
      dir = opposite(dir);
      s.counter = 0;
    }
  } else if constexpr (Id == KernelId::kRandomWalk) {
    // Baseline (non-paper): flip a fair coin each round.  Randomized, hence
    // outside the paper's deterministic model; included to show the bounds
    // are about *deterministic* solvability.
    if (s.rng.next_bool(0.5)) dir = opposite(dir);
  }
}

/// The PEF_3+ family: Algorithm 1 and its two rule ablations.
template <KernelId Id>
inline constexpr bool kPef3Family = Id == KernelId::kPef3Plus ||
                                    Id == KernelId::kPef3PlusNoRule2 ||
                                    Id == KernelId::kPef3PlusNoRule3;

/// Kernels whose Compute does nothing on a View with both adjacent edges
/// present — no turn, no memory write — because each of their turn
/// conditions needs an absent edge.  BatchEngine's full-ring FSYNC pass
/// runs no Compute at all for them; kernels_test checks the claim on every
/// such View.
template <KernelId Id>
inline constexpr bool kBothEdgesNoCompute =
    Id == KernelId::kKeepDirection || Id == KernelId::kBounce ||
    Id == KernelId::kPef1 || Id == KernelId::kPef2;

/// The PEF_3+ family's Compute on a View with both adjacent edges present,
/// as byte arithmetic over 0/1 bytes — the form BatchEngine's full-ring
/// FSYNC pass runs as one vectorizable loop over contiguous planes.  The
/// turn bit (XOR it into `dir`) from HasMovedPreviousStep and the
/// multiplicity bit; line 4 then reads a present edge, so
/// HasMovedPreviousStep becomes both_edges_has_moved.  kernels_test checks
/// both against every truth-table row with ahead and behind present.
template <KernelId Id>
[[nodiscard]] inline std::uint8_t both_edges_turn(std::uint8_t has_moved,
                                                  std::uint8_t others) {
  static_assert(kPef3Family<Id>);
  if constexpr (Id == KernelId::kPef3Plus) {
    return has_moved & others;  // Rule 3 (line 1): moved onto a tower
  } else if constexpr (Id == KernelId::kPef3PlusNoRule2) {
    (void)has_moved;
    return others;  // no HasMoved guard
  } else {
    (void)has_moved, (void)others;
    return 0;  // never turns
  }
}
inline constexpr std::uint8_t both_edges_has_moved = 1;

/// Invoke `fn` with the KernelId lifted to a compile-time template
/// argument: the single dispatch point of the kernel path.
template <typename Fn>
inline decltype(auto) with_kernel_id(KernelId id, Fn&& fn) {
  switch (id) {
    case KernelId::kKeepDirection:
      return fn.template operator()<KernelId::kKeepDirection>();
    case KernelId::kBounce:
      return fn.template operator()<KernelId::kBounce>();
    case KernelId::kPef1:
      return fn.template operator()<KernelId::kPef1>();
    case KernelId::kPef2:
      return fn.template operator()<KernelId::kPef2>();
    case KernelId::kPef3Plus:
      return fn.template operator()<KernelId::kPef3Plus>();
    case KernelId::kPef3PlusNoRule2:
      return fn.template operator()<KernelId::kPef3PlusNoRule2>();
    case KernelId::kPef3PlusNoRule3:
      return fn.template operator()<KernelId::kPef3PlusNoRule3>();
    case KernelId::kOscillating:
      return fn.template operator()<KernelId::kOscillating>();
    case KernelId::kRandomWalk:
      return fn.template operator()<KernelId::kRandomWalk>();
  }
  return fn.template operator()<KernelId::kKeepDirection>();  // unreachable
}

/// The Compute phase — runtime form: one with_kernel_id dispatch per call.
/// The reference simulators' entry point, one robot at a time.
inline void kernel_compute(const KernelSpec& spec, const View& view,
                           LocalDirection& dir, KernelState& state) {
  with_kernel_id(spec.id, [&]<KernelId Id>() {
    kernel_compute<Id>(spec, view, dir, state);
  });
}

}  // namespace pef
