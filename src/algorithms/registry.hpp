// Name-based algorithm factory, so benches, tests and examples can sweep
// over "every algorithm we have" uniformly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robot/algorithm.hpp"

namespace pef {

/// Construct an algorithm by registry name (algorithm_names() lists them).
/// `seed` feeds randomized baselines; paper algorithms ignore it.
/// Aborts (PEF_CHECK) on unknown names.
[[nodiscard]] AlgorithmPtr make_algorithm(const std::string& name,
                                          std::uint64_t seed = 0);

/// All registered algorithm names (deterministic paper algorithms first).
[[nodiscard]] std::vector<std::string> algorithm_names();

/// The deterministic algorithms only (the paper's model excludes
/// randomization); used by impossibility benches, which are statements
/// about deterministic solvability.
[[nodiscard]] std::vector<std::string> deterministic_algorithm_names();

}  // namespace pef
