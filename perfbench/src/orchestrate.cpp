// orchestrate-local: pef_orchestrate over local shards of the
// sweep-stochastic grid (8 shards, 2 concurrent single-threaded workers).
#include <algorithm>

#include "bench.hpp"
#include "engine/sweep_runner.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 10;

/// Set-up of one orchestration: a fresh workdir holding the spec file, and
/// the spec checked by the worker binary every shard will run
/// (pef_sweep --validate).  Negative on failure.
double prepare_workdir(const RunConfig& config, const std::string& dir,
                       const std::string& text) {
  const auto t0 = Clock::now();
  remove_tree(dir);
  if (!make_dirs(dir) || !write_file(dir + "/spec.json", text)) return -1;
  Child validate;
  if (!validate.spawn({config.bin_dir + "/pef_sweep", "--validate", "--spec",
                       dir + "/spec.json"},
                      dir + "/validate.log") ||
      validate.wait(nullptr) != 0) {
    return -1;
  }
  return seconds_since(t0);
}

OrchestrateRun run_pass(const RunConfig& config, const std::string& dir,
                        Tracer& tracer, std::uint64_t pass_index) {
  Tracer::Scope root(tracer, "bench.pass", pass_index);
  return run_orchestrate(config, dir, tracer, pass_index);
}

}  // namespace

OrchestrateRun run_orchestrate(const RunConfig& config, const std::string& dir,
                               Tracer& tracer, std::uint64_t request) {
  OrchestrateRun run;
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "orchestrator.run", request);
    Child child;
    if (child.spawn({config.bin_dir + "/pef_orchestrate", "--spec",
                     dir + "/spec.json", "--shards", "8", "--jobs",
                     std::to_string(kWorkerThreads),
                     "--worker-threads", "1", "--workdir", dir + "/work",
                     "--out", dir + "/merged.json", "--report",
                     dir + "/report.json"},
                    dir + "/orchestrate.log")) {
      rusage usage{};
      run.exit_code = child.wait(&usage);
      run.peak_rss_mb = max_rss_mb(usage);
    }
  }
  run.wall_s = seconds_since(t0);
  {
    Tracer::Scope span(tracer, "json.read_merged", request);
    (void)read_file(dir + "/merged.json", &run.merged);
    (void)read_file(dir + "/report.json", &run.report);
    // pef_orchestrate terminates the document with a newline.
    if (!run.merged.empty() && run.merged.back() == '\n') run.merged.pop_back();
  }
  return run;
}

/// Orchestrator counters from a report.json: launches, failures and the
/// slowest shard.
void report_counters(const std::string& report, std::uint64_t* launches,
                     std::uint64_t* failures, double* shard_wall_ms_max) {
  *launches = 0;
  *failures = 0;
  *shard_wall_ms_max = 0;
  const auto parsed = pef::parse_json(report, nullptr);
  const pef::JsonValue* shards =
      parsed ? parsed->find("shard_outcomes") : nullptr;
  if (shards == nullptr || !shards->is_array()) return;
  for (const pef::JsonValue& shard : shards->items) {
    const pef::JsonValue* l = shard.find("launches");
    const pef::JsonValue* f = shard.find("failures");
    const pef::JsonValue* w = shard.find("wall_ms");
    if (l != nullptr && l->is_uint) *launches += l->uint_value;
    if (f != nullptr && f->is_uint) *failures += f->uint_value;
    if (w != nullptr && w->is_number()) {
      *shard_wall_ms_max = std::max(*shard_wall_ms_max, w->number_value);
    }
  }
}

RunOutcome run_orchestrate_workload(const RunConfig& config) {
  RunOutcome outcome;
  const pef::SweepSpec generated = stochastic_sweep(config.seed, config.tiny);
  const std::string text = generated.to_json();
  const pef::SweepSpec spec = parse_sweep_or_die(text);
  const std::uint64_t cells = pef::count_sweep_cells(spec);
  const std::uint64_t rounds = cells * spec.horizon;

  // Set-up samples: every pass's own, plus extra ones at the start and after
  // every pass, so the median spans the run.
  std::vector<double> setups;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double setup =
          prepare_workdir(config, config.work_dir + "/setup", text);
      if (setup >= 0) setups.push_back(setup);
      remove_tree(config.work_dir + "/setup");
    }
  };
  set_up();

  Tracer tracer(config.trace);
  Tracer off(false);
  std::vector<OrchestrateRun> plain;
  std::vector<OrchestrateRun> traced;
  const auto start = Clock::now();
  std::size_t index = 0;
  while (time_for_another(start, config.seconds, plain.size())) {
    std::string dir = config.work_dir + "/orch-" + std::to_string(index++);
    const double setup = prepare_workdir(config, dir, text);
    if (setup >= 0) setups.push_back(setup);
    plain.push_back(run_pass(config, dir, off, plain.size()));
    remove_tree(dir);
    set_up();
    if (config.trace) {
      dir = config.work_dir + "/orch-" + std::to_string(index++);
      (void)prepare_workdir(config, dir, text);
      traced.push_back(run_pass(config, dir, tracer, traced.size()));
      remove_tree(dir);
    }
  }

  // Output checks: every orchestration exits 0 and its merge equals the
  // in-process sweep's JSON.
  const pef::SweepRunner runner(kWorkerThreads);
  const auto in_process_start = Clock::now();
  const std::string reference = runner.run(spec).to_json();
  const double in_process_wall = seconds_since(in_process_start);
  if (config.corrupt) plain.back().merged[plain.back().merged.size() / 2] ^= 1;
  std::vector<OrchestrateRun*> all;
  for (OrchestrateRun& pass : plain) all.push_back(&pass);
  for (OrchestrateRun& pass : traced) all.push_back(&pass);
  for (const OrchestrateRun* pass : all) {
    outcome.attempted += cells;
    if (pass->exit_code != 0) {
      outcome.failed += cells;
      outcome.failures.push_back("pef_orchestrate exited with " +
                                 std::to_string(pass->exit_code));
    } else if (pass->merged != reference) {
      outcome.failed += cells;
      outcome.failures.push_back(
          "orchestrated merge differs from the in-process sweep JSON");
    }
  }

  std::vector<double> walls;
  std::vector<double> rss;
  for (const OrchestrateRun& pass : plain) {
    walls.push_back(pass.wall_s);
    rss.push_back(pass.peak_rss_mb);
  }
  const double wall = median(walls);
  outcome.notes.push_back(
      "workload orchestrate-local: " + std::to_string(cells) + " cells x " +
      std::to_string(spec.horizon) + " rounds, 8 shards, " +
      std::to_string(kWorkerThreads) + " jobs, " +
      std::to_string(plain.size()) + " untraced passes");

  if (!config.trace) {
    Metrics& m = outcome.metrics;
    m.add("setup_s", median(setups), "s");
    outcome.notes.push_back("setup samples: " + describe_ms(setups));
    m.add("wall_s", wall, "s");
    m.add("rounds_per_s", static_cast<double>(rounds) / wall, "1/s");
    m.add("requests_per_s", static_cast<double>(cells) / wall, "1/s");
    // Every cell arrives with the merged document at the end of the pass, so
    // each pass's latency quantiles are its wall, and their median over
    // passes is the median pass wall.
    m.add("latency_p50_ms", wall * 1e3, "ms");
    m.add("latency_p99_ms", wall * 1e3, "ms");
    m.add("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MB");
    outcome.notes.push_back("latency samples (one merged result per pass): " +
                            std::to_string(walls.size()));
    std::string list;
    for (const double w : walls) list += " " + std::to_string(w);
    outcome.notes.push_back("pass walls (s):" + list);
    return outcome;
  }

  std::vector<double> launches;
  std::vector<double> failures;
  std::vector<double> shard_max;
  std::vector<double> traced_walls;
  for (const OrchestrateRun& pass : traced) {
    std::uint64_t l = 0;
    std::uint64_t f = 0;
    double w = 0;
    report_counters(pass.report, &l, &f, &w);
    launches.push_back(static_cast<double>(l));
    failures.push_back(static_cast<double>(f));
    shard_max.push_back(w);
    traced_walls.push_back(pass.wall_s);
  }
  Metrics& m = outcome.metrics;
  m.add("orchestrator.launches", median(launches), "count");
  m.add("orchestrator.failures", median(failures), "count");
  m.add("orchestrator.shard_wall_ms_max", median(shard_max), "ms");
  m.add("orchestrator.overhead_s", wall - in_process_wall, "s");
  m.add("trace.overhead_ratio", median(traced_walls) / wall, "ratio");
  outcome.notes.push_back("in-process SweepRunner(" +
                          std::to_string(kWorkerThreads) +
                          ") wall of the same grid: " +
                          format_ms(in_process_wall));

  ProbeInputs inputs;
  inputs.has_orchestrator = true;
  inputs.spec_texts = {text};
  inputs.sweeps = {spec};
  for (const pef::AdversaryConfig& adversary : spec.adversaries) {
    for (const pef::ExecutionModel model : spec.models) {
      inputs.native.emplace_back(adversary_slug(adversary), model);
      pef::ScenarioSpec scenario;
      scenario.nodes = spec.ring_sizes.front();
      scenario.robots = spec.robot_counts.front();
      scenario.algorithm = spec.algorithms[0];
      scenario.adversary = adversary;
      scenario.model = model;
      scenario.horizon = spec.horizon;
      scenario.seed = spec.seeds[0];
      inputs.scenarios.push_back(scenario);
    }
  }
  inputs.cache_feed.emplace_back(spec.to_json(), reference);
  inputs.algorithm = spec.algorithms[0];
  inputs.ring_sizes = spec.ring_sizes;
  inputs.robot_counts = spec.robot_counts;
  inputs.seeds.assign(spec.seeds.begin(),
                      spec.seeds.begin() + std::min<std::size_t>(4, spec.seeds.size()));
  inputs.horizon = std::min<pef::Time>(spec.horizon, 2000);

  run_probes(config, inputs, tracer, outcome);
  finish_trace(config, tracer, seconds_since(start), outcome);
  return outcome;
}

}  // namespace perfbench
