// A robot's initial placement: its start node and chirality.
#pragma once

#include "common/types.hpp"
#include "robot/chirality.hpp"

namespace pef {

/// Initial placement of one robot (node, chirality).  Initial `dir` is
/// `left` per the paper ("Initially, this variable is set to left").
struct RobotPlacement {
  NodeId node = 0;
  Chirality chirality{true};
};

}  // namespace pef
