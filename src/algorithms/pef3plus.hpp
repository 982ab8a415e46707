// PEF_3+ — Algorithm 1 of the paper (Section 3): perpetual exploration in
// FSYNC with k >= 3 robots on any connected-over-time ring of n > k nodes.
//
// The algorithm, verbatim:
//
//   1: if HasMovedPreviousStep and ExistsOtherRobotsOnCurrentNode() then
//   2:   dir <- opposite(dir)
//   3: end if
//   4: HasMovedPreviousStep <- ExistsEdge(dir)
//
// which encodes the paper's three rules:
//   Rule 1 - a robot keeps its direction while not involved in a tower;
//   Rule 2 - a robot that did NOT move and finds itself in a tower keeps
//            its direction (it becomes/remains a *sentinel* at an eventual
//            missing edge extremity);
//   Rule 3 - a robot that moved onto a tower turns back (the sentinel
//            "signals" the explorer that it reached an extremity).
//
// Note on line 4: `dir` is the possibly-flipped direction, and because the
// round is fully synchronous the edge set seen at Look time is the one used
// at Move time, so HasMovedPreviousStep is exactly "I will move this round".
#pragma once

#include "robot/algorithm.hpp"

namespace pef {

/// Persistent memory of one PEF_3+ robot: the single boolean of Algorithm 1.
class Pef3PlusState final : public AlgorithmState {
 public:
  bool has_moved_previous_step = false;

  [[nodiscard]] std::unique_ptr<AlgorithmState> clone() const override;
  [[nodiscard]] std::string to_string() const override;
};

class Pef3Plus final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "pef3+"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override;
  void compute(const View& view, LocalDirection& dir,
               AlgorithmState& state) const override;
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kPef3Plus};
  }
};

}  // namespace pef
