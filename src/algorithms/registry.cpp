#include "algorithms/registry.hpp"

#include "common/check.hpp"

namespace pef {

namespace {

/// One registry row: the name make_algorithm takes (CLI flags, spec JSON),
/// the display name Algorithm::name() returns (written into run results),
/// and the kernel it runs (algorithms/kernels.hpp).
struct RegistryEntry {
  const char* name;
  const char* display;
  KernelSpec kernel;
};

// Paper algorithms first, then the baselines and the PEF_3+ ablations.  The
// paper proves its bounds against *all* deterministic algorithms, so the
// benches pit the lower-bound adversaries against this whole suite, and the
// upper-bound benches use the baselines as comparators that fail where PEF
// succeeds.  random-walk's seed is filled in by make_algorithm.
constexpr RegistryEntry kRegistry[] = {
    {"pef3+", "pef3+", {KernelId::kPef3Plus}},
    {"pef2", "pef2", {KernelId::kPef2}},
    {"pef1", "pef1", {KernelId::kPef1}},
    {"keep-direction", "keep-direction", {KernelId::kKeepDirection}},
    {"bounce", "bounce", {KernelId::kBounce}},
    {"random-walk", "random-walk", {KernelId::kRandomWalk}},
    {"oscillating", "oscillating(4)", {KernelId::kOscillating, 0, 4}},
    {"pef3+-no-rule2", "pef3+-no-rule2", {KernelId::kPef3PlusNoRule2}},
    {"pef3+-no-rule3", "pef3+-no-rule3", {KernelId::kPef3PlusNoRule3}},
};

}  // namespace

AlgorithmPtr make_algorithm(const std::string& name, std::uint64_t seed) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name != entry.name) continue;
    KernelSpec kernel = entry.kernel;
    if (kernel.id == KernelId::kRandomWalk) kernel.seed = seed;
    return std::make_shared<const Algorithm>(entry.display, kernel);
  }
  PEF_CHECK_MSG(false, "unknown algorithm name");
  return nullptr;
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const RegistryEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

std::vector<std::string> deterministic_algorithm_names() {
  std::vector<std::string> names;
  for (const RegistryEntry& entry : kRegistry) {
    if (entry.kernel.id != KernelId::kRandomWalk) {
      names.emplace_back(entry.name);
    }
  }
  return names;
}

}  // namespace pef
