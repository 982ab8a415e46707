#include "scheduler/trace.hpp"

#include "common/check.hpp"

namespace pef {

NodeId Trace::position_at(RobotId r, Time t) const {
  PEF_CHECK(r < initial_.robot_count());
  PEF_CHECK(t <= length());
  if (t == 0) return initial_.robot(r).node;
  return rounds_[static_cast<std::size_t>(t - 1)].robots[r].node_after;
}

}  // namespace pef
