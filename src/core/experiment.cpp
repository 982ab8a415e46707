#include "core/experiment.hpp"

#include "algorithms/registry.hpp"
#include "common/check.hpp"
#include "engine/batch_engine.hpp"

namespace pef {

namespace {

/// Everything below the engine run: the full per-trace analysis of one
/// seed of a battery.
RunResult analyze_run(const Ring& ring, const Trace& trace,
                      const ScenarioSpec& spec,
                      const std::string& algorithm_name, std::uint64_t seed) {
  RunResult result;
  result.coverage = analyze_coverage(trace);
  result.towers = analyze_towers(trace);
  result.legality =
      audit_connectivity(ring, trace.edge_history(), spec.horizon / 4);
  result.perpetual = result.coverage.perpetual(spec.nodes);
  result.adversary_legal = result.legality.connected_over_time;
  result.algorithm_name = algorithm_name;
  result.adversary_name = adversary_display_name(spec.adversary);
  result.model = spec.model;
  result.topology = spec.topology;
  result.nodes = spec.nodes;
  result.robots = spec.robots;
  result.horizon = spec.horizon;
  result.seed = seed;
  return result;
}

}  // namespace

std::string run_result_to_json(const RunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.field("algorithm", result.algorithm_name);
  json.field("adversary", result.adversary_name);
  json.field("model", to_string(result.model));
  json.field("topology", to_string(result.topology));
  json.field("n", result.nodes);
  json.field("k", result.robots);
  json.field("horizon", result.horizon);
  json.field("seed", result.seed);
  json.field("perpetual", result.perpetual);
  if (result.coverage.cover_time) {
    json.field("cover_time", *result.coverage.cover_time);
  } else {
    json.null_field("cover_time");
  }
  json.field("visited_nodes", result.coverage.visited_node_count);
  json.field("max_revisit_gap", result.coverage.max_revisit_gap);
  json.field("max_closed_gap", result.coverage.max_closed_gap);
  json.field("max_tower_size", result.towers.max_tower_size);
  json.field("tower_formations", result.towers.tower_formation_count);
  json.field("adversary_legal", result.adversary_legal);
  json.end_object();
  return json.str();
}

ExperimentConfig to_experiment_config(const ScenarioSpec& spec) {
  const auto invalid = spec.validate();
  PEF_CHECK_MSG(!invalid.has_value(), "invalid scenario spec");
  ExperimentConfig config;
  config.nodes = spec.nodes;
  config.robots = spec.robots;
  config.topology = spec.topology;
  config.algorithm = make_algorithm(resolved_algorithm(spec), spec.seed);
  config.adversary = spec.adversary;
  config.horizon = spec.horizon;
  config.seed = spec.seed;
  config.model = spec.model;
  config.activation_p = spec.activation_p;
  return config;
}

RunResult run_scenario(const ScenarioSpec& spec) {
  return run_battery(spec, spec.seed, 1).front();
}

std::vector<RunResult> run_battery(const ScenarioSpec& spec,
                                   std::uint64_t first_seed,
                                   std::uint32_t seeds) {
  const auto invalid = spec.validate();
  PEF_CHECK_MSG(!invalid.has_value(), "invalid scenario spec");
  const std::string algorithm = resolved_algorithm(spec);
  // The registry's display name (what RunResult reports) is the same for
  // every seed.
  const std::string algorithm_name = make_algorithm(algorithm)->name();
  const Ring ring(spec.nodes);
  std::vector<RunResult> results;
  results.reserve(seeds);
  run_seed_group(
      {.ring = ring,
       .robots = spec.robots,
       .model = spec.model,
       .horizon = spec.horizon,
       .activation_p = spec.activation_p,
       .seeds = seeds,
       .record_trace = true},  // the analyses are all trace-based
      [&](std::uint64_t s) {
        const std::uint64_t seed = first_seed + s;
        return SeedRun{seed, make_algorithm(algorithm, seed),
                       adversary_from_config(spec.adversary, ring, seed,
                                             spec.robots, spec.topology),
                       spread_placements(ring, spec.robots)};
      },
      [&](std::uint64_t s, const SeedResult& result) {
        results.push_back(
            analyze_run(ring, *result.trace, spec, algorithm_name,
                        first_seed + s));
      });
  return results;
}

}  // namespace pef
