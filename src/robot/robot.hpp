// One robot as tracked by the reference simulators: placement + model
// variables + kernel memory.
#pragma once

#include "common/types.hpp"
#include "robot/chirality.hpp"
#include "robot/kernel.hpp"

namespace pef {

/// Initial placement of one robot (node, chirality).  Initial `dir` is
/// `left` per the paper ("Initially, this variable is set to left").
struct RobotPlacement {
  NodeId node = 0;
  Chirality chirality{true};
};

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

}  // namespace pef
