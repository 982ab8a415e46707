// PEF_1 — Section 5.2 of the paper: perpetual exploration of
// connected-over-time rings of exactly 2 nodes with a single robot.
//
// "As soon as at least one adjacent edge to the current node of the robot is
// present, its variable dir points arbitrarily to one of these edges."
//
// Our deterministic instantiation of "arbitrarily": keep the current
// direction when its edge is present, otherwise point to the other side.
// (Both nodes of a 2-ring are adjacent through every edge, so any choice of
// a present edge moves the robot to the other node.)
#pragma once

#include "robot/algorithm.hpp"

namespace pef {

class Pef1 final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "pef1"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<EmptyState>();
  }
  void compute(const View& view, LocalDirection& dir,
               AlgorithmState& state) const override;
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kPef1};
  }
};

}  // namespace pef
