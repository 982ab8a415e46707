// sweep-stochastic and sweep-crowded: in-process SweepRunner(2) sweeps.
#include <algorithm>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "engine/sweep_runner.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 25;

struct SweepPass {
  double wall_s = 0;       // run + serialization
  double run_s = 0;        // SweepRunner::run alone
  double serialize_s = 0;  // SweepResult::to_json
  std::string json;
  pef::SweepResult result;
  std::vector<double> completions_s;  // pass start -> group completion
  std::vector<double> group_walls_s;
};

SweepPass run_pass(const pef::SweepRunner& runner, const pef::SweepSpec& spec,
                   Tracer& tracer, std::uint64_t pass_index) {
  SweepPass pass;
  std::mutex mutex;
  Tracer::Scope root(tracer, "bench.pass", pass_index);
  const auto t0 = Clock::now();
  pef::SweepResult& result = pass.result;
  {
    Tracer::Scope span(tracer, "sweep_runner.run", pass_index);
    result = runner.run(spec, {}, [&](std::uint64_t, std::uint64_t,
                                      double group_wall) {
      const double at = seconds_since(t0);
      std::lock_guard<std::mutex> lock(mutex);
      pass.completions_s.push_back(at);
      pass.group_walls_s.push_back(group_wall);
    });
  }
  const auto t1 = Clock::now();
  {
    Tracer::Scope span(tracer, "json.serialize", pass_index);
    pass.json = result.to_json();
  }
  const auto t2 = Clock::now();
  pass.run_s = seconds_between(t0, t1);
  pass.serialize_s = seconds_between(t1, t2);
  pass.wall_s = seconds_between(t0, t2);
  return pass;
}

/// Cell statistics only (fast-forward telemetry excluded).
bool same_statistics(const pef::SweepCell& a, const pef::SweepCell& b) {
  return a.algorithm == b.algorithm && a.adversary == b.adversary &&
         a.model == b.model && a.nodes == b.nodes && a.robots == b.robots &&
         a.seed == b.seed && a.effective_seed == b.effective_seed &&
         a.horizon == b.horizon && a.perpetual == b.perpetual &&
         a.covered == b.covered && a.cover_time == b.cover_time &&
         a.max_revisit_gap == b.max_revisit_gap &&
         a.tower_rounds == b.tower_rounds &&
         a.tower_formations == b.tower_formations &&
         a.total_moves == b.total_moves;
}

}  // namespace

RunOutcome run_sweep_workload(const RunConfig& config) {
  const bool crowded = config.workload == "sweep-crowded";
  RunOutcome outcome;

  // Set-up: generate the spec text, parse and validate it (what pef_sweep
  // does before its first cell).  Sampled at the start and again after every
  // pass, so the median spans the run rather than the first milliseconds of
  // the process.
  std::vector<double> setups;
  std::string text;
  pef::SweepSpec spec;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto t0 = Clock::now();
      const pef::SweepSpec generated =
          crowded ? crowded_sweep(config.seed, config.tiny)
                  : stochastic_sweep(config.seed, config.tiny);
      text = generated.to_json();
      spec = parse_sweep_or_die(text);
      setups.push_back(seconds_since(t0));
    }
  };
  set_up();
  const pef::SweepRunner runner(kWorkerThreads);
  const std::uint64_t cells = pef::count_sweep_cells(spec);
  const std::uint64_t rounds = cells * spec.horizon;

  Tracer tracer(config.trace);
  Tracer off(false);
  std::vector<SweepPass> plain;
  std::vector<SweepPass> traced;
  const auto start = Clock::now();
  while (time_for_another(start, config.seconds, plain.size())) {
    plain.push_back(run_pass(runner, spec, off, plain.size()));
    set_up();
    if (config.trace) {
      traced.push_back(run_pass(runner, spec, tracer, traced.size()));
    }
  }
  const double peak_rss = self_peak_rss_mb();

  std::vector<double> walls;
  std::vector<std::vector<double>> latencies;
  std::size_t latency_samples = 0;
  for (const SweepPass& pass : plain) {
    walls.push_back(pass.wall_s);
    latencies.push_back(pass.completions_s);
    latency_samples += pass.completions_s.size();
  }
  const double wall = median(walls);
  outcome.attempted = cells * plain.size();

  if (config.corrupt) plain.back().json[plain.back().json.size() / 2] ^= 1;

  // Output checks.  Every pass must reproduce the first pass's bytes.
  std::vector<bool> bad(plain.size(), false);
  for (std::size_t p = 1; p < plain.size(); ++p) {
    if (plain[p].json != plain[0].json) {
      bad[p] = true;
      outcome.failures.push_back("pass " + std::to_string(p) +
                                 " JSON differs from pass 0");
    }
  }
  if (!config.trace) {
    // A 4-way sharded run, merged, must equal the full run.  The shards run
    // side by side, one thread each, as four pef_sweep --shard workers would.
    std::vector<std::string> shards(4);
    std::vector<std::thread> workers;
    for (std::uint32_t i = 0; i < 4; ++i) {
      workers.emplace_back([&spec, &shards, i] {
        shards[i] = pef::SweepRunner(1).run(spec, {i, 4}).to_shard_json();
      });
    }
    for (std::thread& worker : workers) worker.join();
    std::string error;
    const auto merged = pef::merge_sweep_shards(shards, &error);
    if (!merged || *merged != plain[0].json) {
      bad[0] = true;
      outcome.failures.push_back("4-way shard merge differs from the full run" +
                                 (merged ? std::string() : ": " + error));
    }
    if (crowded) {
      // Fast-forward must not change any cell statistic.
      pef::SweepSpec off_spec = spec;
      off_spec.fast_forward = false;
      const pef::SweepResult& on = plain[0].result;
      const pef::SweepResult plain_run = runner.run(off_spec);
      std::uint64_t mismatched = 0;
      for (std::size_t c = 0; c < on.cells.size(); ++c) {
        if (!same_statistics(on.cells[c], plain_run.cells[c])) ++mismatched;
      }
      if (on.cells.size() != plain_run.cells.size() || mismatched != 0) {
        bad[0] = true;
        outcome.failures.push_back(
            "fast-forward on/off statistics differ in " +
            std::to_string(mismatched) + " cells");
      }
    }
  } else {
    // Traced and untraced passes must produce identical bytes.
    for (std::size_t p = 0; p < traced.size(); ++p) {
      if (traced[p].json != plain[0].json) {
        bad[0] = true;
        outcome.failures.push_back("traced pass " + std::to_string(p) +
                                   " JSON differs from the untraced run");
      }
    }
  }
  for (std::size_t p = 0; p < plain.size(); ++p) {
    if (bad[p]) outcome.failed += cells;
  }

  outcome.notes.push_back(
      "workload " + config.workload + ": " + std::to_string(cells) +
      " cells x " + std::to_string(spec.horizon) + " rounds, " +
      std::to_string(plain.size()) + " untraced passes");

  if (!config.trace) {
    outcome.metrics.add("setup_s", median(setups), "s");
    outcome.notes.push_back("setup samples: " + describe_ms(setups));
    outcome.metrics.add("wall_s", wall, "s");
    outcome.metrics.add("rounds_per_s", static_cast<double>(rounds) / wall,
                        "1/s");
    outcome.metrics.add("requests_per_s", static_cast<double>(cells) / wall,
                        "1/s");
    outcome.metrics.add("latency_p50_ms",
                        median_of_quantiles(latencies, 0.5) * 1e3, "ms");
    outcome.metrics.add("latency_p99_ms",
                        median_of_quantiles(latencies, 0.99) * 1e3, "ms");
    outcome.metrics.add("peak_rss_mb", peak_rss, "MB");
    outcome.notes.push_back(
        "latency samples (seed-group completions): " +
        std::to_string(latency_samples) + " over " +
        std::to_string(latencies.size()) + " passes");
    std::string list;
    for (const double w : walls) list += " " + std::to_string(w);
    outcome.notes.push_back("pass walls (s):" + list);
    return outcome;
  }

  // Per-layer metrics of the traced passes.
  std::vector<double> busy;
  std::vector<double> group_p50;
  std::vector<double> group_max;
  std::vector<double> serialize;
  std::vector<double> traced_walls;
  for (const SweepPass& pass : traced) {
    double sum = 0;
    for (const double g : pass.group_walls_s) sum += g;
    busy.push_back(sum / (kWorkerThreads * pass.run_s));
    group_p50.push_back(median(pass.group_walls_s) * 1e3);
    group_max.push_back(
        *std::max_element(pass.group_walls_s.begin(), pass.group_walls_s.end()) *
        1e3);
    serialize.push_back(pass.serialize_s * 1e3);
    traced_walls.push_back(pass.wall_s);
  }
  Metrics& m = outcome.metrics;
  m.add("sweep_runner.busy_ratio", median(busy), "ratio");
  m.add("sweep_runner.group_ms_p50", median(group_p50), "ms");
  m.add("sweep_runner.group_ms_max", median(group_max), "ms");
  m.add("json.serialize_ms", median(serialize), "ms");
  m.add("json.result_bytes", static_cast<double>(plain[0].json.size()),
        "bytes");
  m.add("trace.overhead_ratio", median(traced_walls) / wall, "ratio");

  ProbeInputs inputs;
  inputs.spec_texts = {text};
  inputs.sweeps = {spec};
  for (const pef::AdversaryConfig& adversary : spec.adversaries) {
    for (const pef::ExecutionModel model : spec.models) {
      inputs.native.emplace_back(adversary_slug(adversary), model);
      for (const std::uint32_t n : spec.ring_sizes) {
        for (const std::uint32_t k : spec.robot_counts) {
          pef::ScenarioSpec scenario;
          scenario.nodes = n;
          scenario.robots = k;
          scenario.algorithm = spec.algorithms[0];
          scenario.adversary = adversary;
          scenario.model = model;
          scenario.horizon = std::min<pef::Time>(spec.horizon, 5000);
          scenario.seed = spec.seeds[0];
          inputs.scenarios.push_back(scenario);
        }
      }
    }
  }
  inputs.cache_feed.emplace_back(spec.to_json(), plain[0].json);
  inputs.algorithm = spec.algorithms[0];
  inputs.ring_sizes = spec.ring_sizes;
  inputs.robot_counts = spec.robot_counts;
  inputs.seeds.assign(spec.seeds.begin(),
                      spec.seeds.begin() + std::min<std::size_t>(4, spec.seeds.size()));
  inputs.horizon = std::min<pef::Time>(spec.horizon, 2000);

  const auto probe_start = Clock::now();
  run_probes(config, inputs, tracer, outcome);
  finish_trace(config, tracer, seconds_since(start), outcome);
  outcome.notes.push_back("probes took " +
                          format_ms(seconds_since(probe_start)));
  return outcome;
}

}  // namespace perfbench
