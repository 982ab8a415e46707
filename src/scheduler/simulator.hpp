// Robot placement helpers: the towerless initial configurations every entry
// point (SweepRunner, run_scenario, pef_run, the benches) starts from.
//
// They live at this path because the repository benchmark includes it; the
// reference simulators that once shared the header are test-only oracles
// now (tests/oracles/).
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic_graph/ring.hpp"
#include "robot/robot.hpp"

namespace pef {

/// Convenience: evenly spread, towerless default placements for k robots on
/// an n-node ring, all with the same chirality.
[[nodiscard]] std::vector<RobotPlacement> spread_placements(
    const Ring& ring, std::uint32_t k);

/// Towerless placements on k distinct uniformly random nodes, each robot
/// with an independent random chirality (seeded, reproducible).
[[nodiscard]] std::vector<RobotPlacement> random_placements(
    const Ring& ring, std::uint32_t k, std::uint64_t seed);

}  // namespace pef
