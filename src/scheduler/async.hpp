// ASYNC (fully asynchronous) extension — the third model of the paper's
// taxonomy (Section 1): "In ASYNC, robots execute L-C-M in a fully
// independent manner."
//
// Each robot progresses through its Look / Compute / Move phases
// separately, one phase per activation, under an adversarial but fair
// phase scheduler.  The defining hazard is staleness: the View consumed by
// Compute was snapshotted at Look time, and the edge set consulted at Move
// time may have changed since — so a robot can chase an edge that no
// longer exists, or act on multiplicity information that is rounds old.
//
// Since SSYNC embeds into ASYNC (activate a robot's three phases
// back-to-back), the [10] impossibility carries over: the blocking
// adversary defeats every algorithm here too (see async_test.cpp).  The
// engine also degenerates to FSYNC when every robot advances every round
// over a static graph (cross-checked against Simulator in tests).
//
// AsyncSimulator below is the canonical reference; the unified Engine
// (src/engine/engine.hpp) runs the same model on its throughput path with
// ExecutionModel::kAsync.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "robot/algorithm.hpp"
#include "robot/robot.hpp"
#include "robot/view.hpp"
#include "scheduler/ssync.hpp"
#include "scheduler/trace.hpp"

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

/// Decides which robots advance one phase this round.  Must be fair.
class PhaseScheduler {
 public:
  virtual ~PhaseScheduler() = default;
  /// Fill `mask` with this round's advancing set (resizing it to
  /// gamma.robot_count()).  In-place so callers reuse one buffer across
  /// rounds — no per-round allocation.
  virtual void advance(Time t, const Configuration& gamma,
                       const std::vector<Phase>& phases,
                       ActivationMask& mask) = 0;
  /// Which batched kernel reproduces this scheduler (see ActivationBatchKind
  /// in scheduler/ssync.hpp — the standard schedulers never read `phases`
  /// or `gamma`, so the SSYNC kernels apply unchanged).
  [[nodiscard]] virtual ActivationBatchKind batch_kind() const {
    return ActivationBatchKind::kVirtual;
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Everyone advances every round (synchronised phases: FSYNC at 1/3 speed).
class LockstepPhases final : public PhaseScheduler {
 public:
  void advance(Time, const Configuration& gamma, const std::vector<Phase>&,
               ActivationMask& mask) override {
    mask.assign(gamma.robot_count(), 1);
  }
  [[nodiscard]] ActivationBatchKind batch_kind() const override {
    return ActivationBatchKind::kFull;
  }
  [[nodiscard]] std::string name() const override { return "lockstep"; }
};

/// One robot advances per round, cyclically (maximally interleaved).
class RoundRobinPhases final : public PhaseScheduler {
 public:
  void advance(Time t, const Configuration& gamma, const std::vector<Phase>&,
               ActivationMask& mask) override {
    mask.assign(gamma.robot_count(), 0);
    mask[static_cast<std::size_t>(t % gamma.robot_count())] = 1;
  }
  [[nodiscard]] ActivationBatchKind batch_kind() const override {
    return ActivationBatchKind::kRoundRobin;
  }
  [[nodiscard]] std::string name() const override { return "round-robin"; }
};

/// Each robot advances independently with probability p (fair w.p. 1).
class BernoulliPhases final : public PhaseScheduler {
 public:
  BernoulliPhases(double p, std::uint64_t seed) : p_(p), rng_(seed) {}
  void advance(Time, const Configuration& gamma, const std::vector<Phase>&,
               ActivationMask& mask) override {
    mask.assign(gamma.robot_count(), 0);
    bool any = false;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask[i] = rng_.next_bool(p_) ? 1 : 0;
      any = any || mask[i] != 0;
    }
    if (!any) mask[rng_.next_below(mask.size())] = 1;
  }
  [[nodiscard]] ActivationBatchKind batch_kind() const override {
    return ActivationBatchKind::kBernoulli;
  }
  /// Batched-kernel inputs, as on BernoulliActivation.
  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] const Xoshiro256& rng() const { return rng_; }
  [[nodiscard]] std::string name() const override { return "bernoulli"; }

 private:
  double p_;
  Xoshiro256 rng_;
};

/// The ASYNC counterpart of standard_ssync_activation: the shared seeded
/// phase scheduler of every FSYNC-battery-on-ASYNC entry point.
[[nodiscard]] inline std::unique_ptr<PhaseScheduler> standard_async_phases(
    double p, std::uint64_t seed) {
  return std::make_unique<BernoulliPhases>(p, derive_seed(seed, 0xa5fc));
}

/// The ASYNC reference engine.  Reuses the SsyncAdversary interface (the
/// edge adversary sees the configuration and the advancing set each round).
class AsyncSimulator {
 public:
  AsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                 std::unique_ptr<SsyncAdversary> adversary,
                 std::unique_ptr<PhaseScheduler> phases,
                 const std::vector<RobotPlacement>& placements);

  /// One scheduler tick: every selected robot executes its pending phase.
  RoundRecord step();
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Configuration snapshot() const;
  [[nodiscard]] const Trace& trace() const { return *trace_; }
  [[nodiscard]] Phase phase_of(RobotId r) const { return phases_[r]; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  std::unique_ptr<SsyncAdversary> adversary_;
  std::unique_ptr<PhaseScheduler> scheduler_;
  std::vector<Robot> robots_;
  std::vector<Phase> phases_;
  std::vector<View> pending_views_;  // snapshot taken at Look time
  ActivationMask advancing_;         // reused across ticks
  ActivationMask moving_;            // reused across ticks
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

/// ASYNC blocker: removes both adjacent edges of every robot that executes
/// its Move phase this tick.  No robot ever moves; every edge stays
/// recurrent under non-lockstep fair scheduling.  (The ASYNC face of the
/// [10] impossibility.)
///
/// In the ASYNC engine the adversary's `activated` mask is the set of
/// robots whose *Move* phase fires this tick — SsyncBlockingAdversary has
/// exactly the wanted behaviour, so the blocker is a thin alias kept for
/// readability at call sites.
using AsyncMoveBlocker = SsyncBlockingAdversary;

}  // namespace pef
