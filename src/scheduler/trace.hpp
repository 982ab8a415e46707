// Execution traces: the (G_i, gamma_i) sequence of one run.
//
// The trace is the single source of truth for all post-hoc analysis
// (coverage, towers, legality audits, figure reproduction): a traced Engine
// (EngineOptions::record_trace) appends one RoundRecord per round and
// analysis modules consume it.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/ring.hpp"
#include "robot/configuration.hpp"

namespace pef {

/// What one robot did during one round.
struct RobotRoundRecord {
  NodeId node_before = 0;
  NodeId node_after = 0;
  LocalDirection dir_before = LocalDirection::kLeft;  // dir at Look time
  LocalDirection dir_after = LocalDirection::kLeft;   // dir after Compute
  bool moved = false;
  bool saw_other_robots = false;

  friend bool operator==(const RobotRoundRecord&,
                         const RobotRoundRecord&) = default;
};

struct RoundRecord {
  Time time = 0;
  /// The adversary's E_t for this round.
  EdgeSet edges;
  std::vector<RobotRoundRecord> robots;

  friend bool operator==(const RoundRecord&, const RoundRecord&) = default;
};

class Trace {
 public:
  Trace(Ring ring, Configuration initial)
      : ring_(ring), initial_(std::move(initial)) {}

  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] const Configuration& initial_configuration() const {
    return initial_;
  }

  void append(RoundRecord record) { rounds_.push_back(std::move(record)); }

  [[nodiscard]] const std::vector<RoundRecord>& rounds() const {
    return rounds_;
  }
  [[nodiscard]] Time length() const { return rounds_.size(); }

  /// Node of robot `r` at the *start* of round `t` (so t == length() gives
  /// the final position).
  [[nodiscard]] NodeId position_at(RobotId r, Time t) const;

  /// The sequence of chosen edge sets (for connectivity audits).
  [[nodiscard]] std::vector<EdgeSet> edge_history() const;

 private:
  Ring ring_;
  Configuration initial_;
  std::vector<RoundRecord> rounds_;
};

}  // namespace pef
