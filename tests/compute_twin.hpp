// Rule-level test driver: one robot's Compute phase run through BOTH forms
// of an algorithm on the same View sequence — the virtual Algorithm (what
// the reference simulators run) and its devirtualized kernel (what Engine
// and BatchEngine run).  Every compute() call checks that the two forms
// agree on the new direction, so each rule-level case pins both.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "algorithms/kernels.hpp"
#include "robot/algorithm.hpp"

namespace pef {

class ComputeTwin {
 public:
  explicit ComputeTwin(const Algorithm& algorithm, RobotId robot = 0,
                       LocalDirection dir = LocalDirection::kLeft)
      : algorithm_(algorithm),
        kernel_(algorithm.kernel()),
        state_(algorithm.make_state(robot)),
        virtual_dir_(dir),
        kernel_dir_(dir) {
    init_kernel_state(kernel_, robot, kernel_state_);
  }

  /// One Compute on `view` through both forms; returns the new direction.
  LocalDirection compute(const View& view) {
    algorithm_.compute(view, virtual_dir_, *state_);
    with_kernel_id(kernel_.id, [&]<KernelId Id>() {
      kernel_compute<Id>(kernel_, view, kernel_dir_, kernel_state_);
    });
    EXPECT_EQ(kernel_dir_, virtual_dir_)
        << to_string(kernel_.id) << " kernel diverged from its virtual twin";
    return virtual_dir_;
  }

  [[nodiscard]] LocalDirection dir() const { return virtual_dir_; }
  [[nodiscard]] const AlgorithmState& state() const { return *state_; }
  [[nodiscard]] const KernelState& kernel_state() const {
    return kernel_state_;
  }

 private:
  const Algorithm& algorithm_;
  KernelSpec kernel_;
  std::unique_ptr<AlgorithmState> state_;
  KernelState kernel_state_;
  LocalDirection virtual_dir_;
  LocalDirection kernel_dir_;
};

}  // namespace pef
