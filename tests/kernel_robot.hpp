// Rule-level test driver: one robot's Compute phase run through its kernel
// (algorithms/kernels.hpp) on a sequence of Views, exactly as the reference
// simulators run it — the same runtime-dispatched kernel_compute over the
// same KernelState.
#pragma once

#include "algorithms/kernels.hpp"
#include "robot/algorithm.hpp"

namespace pef {

class KernelRobot {
 public:
  explicit KernelRobot(const Algorithm& algorithm, RobotId robot = 0,
                       LocalDirection dir = LocalDirection::kLeft)
      : kernel_(algorithm.kernel()), dir_(dir) {
    init_kernel_state(kernel_, robot, state_);
  }

  /// One Compute on `view`; returns the new direction.
  LocalDirection compute(const View& view) {
    kernel_compute(kernel_, view, dir_, state_);
    return dir_;
  }

  [[nodiscard]] const KernelState& state() const { return state_; }

 private:
  KernelSpec kernel_;
  LocalDirection dir_;
  KernelState state_;
};

}  // namespace pef
