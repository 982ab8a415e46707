// Ablations of PEF_3+ demonstrating that Rules 2 and 3 are both necessary
// (the design-choice benches of DESIGN.md).
//
//   Pef3PlusNoRule2 - drop the "HasMovedPreviousStep" guard: a robot in a
//     tower turns back even when it did NOT move.  A sentinel standing at an
//     eventual-missing-edge extremity abandons its post as soon as an
//     explorer arrives, so the extremity loses its marker and the ring's far
//     side can starve.
//
//   Pef3PlusNoRule3 - drop the turn entirely: robots never change direction.
//     Behaviourally identical to the KeepDirection baseline (the only
//     direction change in PEF_3+ is the tower turn), kept as a distinct
//     class so ablation benches read naturally; it still maintains the
//     HasMovedPreviousStep variable like the real algorithm.
#pragma once

#include "algorithms/pef3plus.hpp"

namespace pef {

class Pef3PlusNoRule2 final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "pef3+-no-rule2"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<Pef3PlusState>();
  }
  void compute(const View& view, LocalDirection& dir,
               AlgorithmState& state) const override {
    auto& s = static_cast<Pef3PlusState&>(state);
    bool ahead_is_incoming_dir = true;
    if (view.other_robots_on_node) {  // no HasMoved guard: Rule 2 dropped
      dir = opposite(dir);
      ahead_is_incoming_dir = false;
    }
    s.has_moved_previous_step = view.exists_edge(ahead_is_incoming_dir);
  }
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kPef3PlusNoRule2};
  }
};

class Pef3PlusNoRule3 final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "pef3+-no-rule3"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<Pef3PlusState>();
  }
  void compute(const View& view, LocalDirection&,
               AlgorithmState& state) const override {
    auto& s = static_cast<Pef3PlusState&>(state);
    s.has_moved_previous_step = view.exists_edge_ahead;  // never turns
  }
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kPef3PlusNoRule3};
  }
};

}  // namespace pef
