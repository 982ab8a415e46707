// The experiment harness: one call = one (algorithm, adversary, k, n, seed,
// horizon) run, fully analysed.  Benches and integration tests are thin
// loops over this.
//
// Scenarios are described by the data-only ScenarioSpec (core/spec.hpp);
// run_scenario() executes one and run_battery() one across many seeds.
// Every run records a trace on a solo Engine (run_battery's traced seed
// groups never batch), so the whole trace analysis suite applies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "analysis/towers.hpp"
#include "core/spec.hpp"
#include "dynamic_graph/properties.hpp"
#include "engine/engine.hpp"
#include "robot/algorithm.hpp"
#include "robot/robot.hpp"
#include "scheduler/simulator.hpp"

namespace pef {

/// A spec materialized with a live AlgorithmPtr (which a serializable spec
/// cannot hold); to_experiment_config is its only producer.
struct ExperimentConfig {
  std::uint32_t nodes = 4;
  std::uint32_t robots = 3;
  Topology topology = Topology::kRing;
  AlgorithmPtr algorithm;
  AdversaryConfig adversary;
  Time horizon = 2000;
  std::uint64_t seed = 1;
  /// Activation model.  SSYNC runs under seeded Bernoulli activation and
  /// ASYNC under seeded Bernoulli phase advancement (probability
  /// `activation_p`, same default as ScenarioSpec and pef_run); the adversary
  /// is adapted through SsyncFromFsyncAdversary and ignores the activation
  /// mask.
  ExecutionModel model = ExecutionModel::kFsync;
  double activation_p = 0.5;
};

struct RunResult {
  CoverageReport coverage;
  TowerReport towers;
  ConnectivityAudit legality;

  /// Finite-horizon perpetual-exploration verdict.
  bool perpetual = false;
  /// The realized evolving graph passed the connected-over-time audit.
  bool adversary_legal = false;

  std::string algorithm_name;
  std::string adversary_name;
  ExecutionModel model = ExecutionModel::kFsync;
  Topology topology = Topology::kRing;
  std::uint32_t nodes = 0;
  std::uint32_t robots = 0;
  Time horizon = 0;
  std::uint64_t seed = 0;
};

/// Canonical single-line JSON of one run's analysis — the scenario-shaped
/// counterpart of SweepResult::to_json() (deterministic: pure function of
/// the spec, so serve-layer caches may key it by canonical spec JSON).
[[nodiscard]] std::string run_result_to_json(const RunResult& result);

/// Materialize a data-only spec into a runnable config (resolves the
/// algorithm name; everything else copies over).  Aborts if the spec does
/// not validate — call spec.validate() first for a recoverable error.
[[nodiscard]] ExperimentConfig to_experiment_config(const ScenarioSpec& spec);

/// One call = one spec: validate, run, analyse.  Equal to
/// run_battery(spec, spec.seed, 1).front().
[[nodiscard]] RunResult run_scenario(const ScenarioSpec& spec);

/// The spec across `seeds` different seeds starting at `first_seed`:
/// result s equals run_scenario(spec) with spec.seed = first_seed + s
/// (spec.seed itself is ignored).  The seeds run as one traced seed group
/// (run_seed_group), which runs each seed on a solo Engine.
[[nodiscard]] std::vector<RunResult> run_battery(const ScenarioSpec& spec,
                                                 std::uint64_t first_seed,
                                                 std::uint32_t seeds);

}  // namespace pef
