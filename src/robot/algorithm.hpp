// A robot algorithm: a display name plus the KernelSpec of its Compute
// phase.
//
// Robots are uniform: one Algorithm is shared by every robot, and each
// robot owns a KernelState (its persistent memory).  The Compute phase may
// flip the robot's `dir` variable based only on the Look-phase View and the
// robot's own state — matching the paper's model exactly: no IDs, no
// communication, no global knowledge.  The rules themselves are the
// kernel_compute cases in algorithms/kernels.hpp; every simulator and
// engine runs them from the KernelSpec held here.  Construct registry
// algorithms by name with make_algorithm (algorithms/registry.hpp).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "robot/kernel.hpp"

namespace pef {

class Algorithm {
 public:
  Algorithm(std::string name, KernelSpec kernel)
      : name_(std::move(name)), kernel_(kernel) {}

  /// Display name, written into run results (e.g. "oscillating(4)").
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The kernel every simulator and engine runs for this algorithm.
  [[nodiscard]] const KernelSpec& kernel() const { return kernel_; }

 private:
  std::string name_;
  KernelSpec kernel_;
};

using AlgorithmPtr = std::shared_ptr<const Algorithm>;

}  // namespace pef
