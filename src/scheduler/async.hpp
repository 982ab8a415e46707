// ASYNC (fully asynchronous) extension — the third model of the paper's
// taxonomy (Section 1): "In ASYNC, robots execute L-C-M in a fully
// independent manner."
//
// Each robot progresses through its Look / Compute / Move phases
// separately, one phase per activation, under a fair phase schedule: the
// SSYNC model's ActivationRule (scheduler/ssync.hpp), read as "these robots
// advance one phase this tick".  No rule reads the robots' phases.  The
// defining hazard is staleness: the View consumed by Compute was
// snapshotted at Look time, and the edge set consulted at Move time may
// have changed since — so a robot can chase an edge that no longer
// exists, or act on multiplicity information that is rounds old.
//
// Since SSYNC embeds into ASYNC (activate a robot's three phases
// back-to-back), the [10] impossibility carries over: the blocking
// adversary defeats every algorithm here too (see async_test.cpp).  The
// model also degenerates to FSYNC when every robot advances every round
// over a static graph (cross-checked in tests).
//
// The unified Engine (src/engine/engine.hpp) runs this model with
// ExecutionModel::kAsync; its test-only reference engine lives in
// tests/oracles/.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "scheduler/ssync.hpp"

namespace pef {

enum class Phase : std::uint8_t { kLook = 0, kCompute = 1, kMove = 2 };

[[nodiscard]] constexpr const char* to_string(Phase p) {
  switch (p) {
    case Phase::kLook:
      return "Look";
    case Phase::kCompute:
      return "Compute";
    case Phase::kMove:
      return "Move";
  }
  return "?";
}

/// The ASYNC Engine constructor's phase-schedule argument: the
/// ActivationRule that picks which robots advance one phase each tick
/// (kFull = lockstep phases, FSYNC at 1/3 speed; kRoundRobin = one robot
/// per tick, maximally interleaved; kBernoulli = each robot w.p. p), under
/// the type name that picks the ASYNC constructor.
struct PhaseScheduler {
  ActivationRule rule;
};

/// The ASYNC counterpart of standard_ssync_activation: the shared seeded
/// phase scheduler of every FSYNC-battery-on-ASYNC entry point.
[[nodiscard]] inline PhaseScheduler standard_async_phases(double p,
                                                          std::uint64_t seed) {
  return {ActivationRule::bernoulli(p, derive_seed(seed, 0xa5fc))};
}

/// ASYNC blocker: removes both adjacent edges of every robot that executes
/// its Move phase this tick.  No robot ever moves; every edge stays
/// recurrent under non-lockstep fair scheduling.  (The ASYNC face of the
/// [10] impossibility.)
///
/// In the ASYNC model the adversary's `activated` mask is the set of
/// robots whose *Move* phase fires this tick — SsyncBlockingAdversary has
/// exactly the wanted behaviour, so the blocker is a thin alias kept for
/// readability at call sites.
using AsyncMoveBlocker = SsyncBlockingAdversary;

}  // namespace pef
