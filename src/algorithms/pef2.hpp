// PEF_2 — Section 4.2 of the paper: perpetual exploration of
// connected-over-time rings of exactly 3 nodes with 2 robots.
//
// "Each robot disposes only of its dir variable.  If at a time t, a robot is
// isolated on a node with only one adjacent edge, then it points to this
// edge.  Otherwise (i.e., none of the adjacent edges is present, both
// adjacent edges are present, or the other robot is present on the same
// node), the robot keeps its current direction."
#pragma once

#include "robot/algorithm.hpp"

namespace pef {

class Pef2 final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "pef2"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<EmptyState>();
  }
  void compute(const View& view, LocalDirection& dir,
               AlgorithmState& state) const override;
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kPef2};
  }
};

}  // namespace pef
