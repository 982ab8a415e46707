// The reference simulators: one straight-line implementation of each
// execution model, kept as test oracles for the production Engine and
// BatchEngine.
//
//   Simulator      - FSYNC (Section 2.3 of the paper);
//   SsyncSimulator - SSYNC: the activation rule picks the robots that run
//                    an atomic Look-Compute-Move this round;
//   AsyncSimulator - ASYNC: the same rule picks the robots that advance
//                    their own Look / Compute / Move machine one phase.
//
// Each keeps an array-of-structs Robot per robot, snapshots a fresh
// Configuration every round and records every round into its Trace —
// nothing here is tuned.  They run the same kernels (kernel_compute in
// algorithms/kernels.hpp) and draw activation from the same
// fill_activation (scheduler/ssync.hpp) as the engines, so the
// differential suites compare round machinery, not rules.  Built as the
// pef_oracles library, linked only by the tests and bench_scaling's
// Simulator-vs-Engine head-to-head.
#pragma once

#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/types.hpp"
#include "robot/algorithm.hpp"
#include "robot/chirality.hpp"
#include "robot/kernel.hpp"
#include "robot/robot.hpp"
#include "robot/view.hpp"
#include "scheduler/async.hpp"
#include "scheduler/simulator.hpp"
#include "scheduler/ssync.hpp"
#include "scheduler/trace.hpp"

namespace pef {

/// One robot as tracked by the reference simulators: placement + model
/// variables + kernel memory.
class Robot {
 public:
  /// The kernel memory starts default-constructed; the simulator fills it
  /// with init_kernel_state (algorithms/kernels.hpp).
  Robot(RobotId id, RobotPlacement placement)
      : id_(id), node_(placement.node), chirality_(placement.chirality) {}

  [[nodiscard]] RobotId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] Chirality chirality() const { return chirality_; }
  [[nodiscard]] LocalDirection dir() const { return dir_; }

  /// The global direction this robot currently "considers" (paper
  /// terminology): its local dir translated through its chirality.
  [[nodiscard]] GlobalDirection considered_direction() const {
    return chirality_.to_global(dir_);
  }

  [[nodiscard]] KernelState& state() { return state_; }
  [[nodiscard]] const KernelState& state() const { return state_; }

  void set_node(NodeId node) { node_ = node; }
  void set_dir(LocalDirection dir) { dir_ = dir; }

 private:
  RobotId id_;
  NodeId node_;
  Chirality chirality_;
  LocalDirection dir_ = LocalDirection::kLeft;
  KernelState state_;
};

struct SimulatorOptions {
  /// Record a full Trace (positions, dirs, edge sets per round).  Costs
  /// O(k + n/64) memory per round; disable for very long timing benches.
  bool record_trace = true;

  /// Enforce the paper's well-initiated execution requirements: strictly
  /// fewer robots than nodes and a towerless initial configuration.
  bool enforce_well_initiated = true;
};

/// The FSYNC reference engine.  Each round is three atomic synchronous
/// phases executed by all robots:
///   Look    - each robot snapshots ExistsEdge(dir), ExistsEdge(opposite
///             dir) and ExistsOtherRobotsOnCurrentNode() against E_t and
///             gamma_t;
///   Compute - each robot runs the algorithm, possibly flipping `dir`;
///   Move    - each robot crosses the edge it points to iff that edge is in
///             E_t, else stays put.
/// The adversary supplies E_t at the start of the round, seeing gamma_t.
class Simulator {
 public:
  Simulator(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
            const std::vector<RobotPlacement>& placements,
            SimulatorOptions options = {});

  /// Execute one synchronous round; returns the record of what happened
  /// (also appended to the trace when recording).
  RoundRecord step();

  /// Execute `rounds` further rounds.
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t robot_count() const {
    return static_cast<std::uint32_t>(robots_.size());
  }
  [[nodiscard]] const Robot& robot(RobotId r) const { return robots_[r]; }

  /// Current configuration (the gamma at the start of the next round).
  [[nodiscard]] Configuration snapshot() const;

  [[nodiscard]] const Trace& trace() const { return *trace_; }
  [[nodiscard]] Adversary& adversary() { return *adversary_; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  AdversaryPtr adversary_;
  SimulatorOptions options_;
  std::vector<Robot> robots_;
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

/// The SSYNC reference engine.  Mirrors Simulator but applies the L-C-M
/// cycle only to activated robots.
class SsyncSimulator {
 public:
  SsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                 std::unique_ptr<SsyncAdversary> adversary,
                 ActivationRule activation,
                 const std::vector<RobotPlacement>& placements);

  RoundRecord step();
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Configuration snapshot() const;
  [[nodiscard]] const Trace& trace() const { return *trace_; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  std::unique_ptr<SsyncAdversary> adversary_;
  ActivationRule activation_;
  std::vector<Robot> robots_;
  std::vector<std::uint64_t> activated_set_;  // reused across rounds
  ActivationMask activated_;                  // reused across rounds
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

/// The ASYNC reference engine.  Reuses the SsyncAdversary interface (the
/// edge adversary sees the configuration and the advancing set each round).
class AsyncSimulator {
 public:
  AsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                 std::unique_ptr<SsyncAdversary> adversary,
                 ActivationRule phases,
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
  ActivationRule scheduler_;
  std::vector<Robot> robots_;
  std::vector<Phase> phases_;
  std::vector<View> pending_views_;  // snapshot taken at Look time
  std::vector<std::uint64_t> advancing_set_;  // reused across ticks
  ActivationMask advancing_;         // reused across ticks
  ActivationMask moving_;            // reused across ticks
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

}  // namespace pef
