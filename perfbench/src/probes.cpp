// Layer probes for the traced run.  Each probe times calls into one layer's
// public functions on the workload's own inputs and records a span around
// each call; the span names start with the layer name.
#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "adversary/adversary.hpp"
#include "bench.hpp"
#include "core/experiment.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "engine/sweep_runner.hpp"
#include "scheduler/async.hpp"
#include "scheduler/simulator.hpp"
#include "scheduler/ssync.hpp"
#include "serve/cache.hpp"

namespace perfbench {

namespace {

using pef::ExecutionModel;

const char* model_slug(ExecutionModel model) { return pef::to_string(model); }

double ms(double seconds) { return seconds * 1e3; }

/// Repeat `fn` until `min_seconds` of it ran (at least `min_repeats`
/// times); the median single-call time.
template <typename Fn>
double median_call(Fn&& fn, int min_repeats, double min_seconds) {
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < min_repeats || total < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
    total += times.back();
    if (times.size() >= 10000) break;
  }
  return median(times);
}

/// The sweep probes' shared output: the workload's sweeps run as given.
struct SweepRuns {
  std::vector<pef::SweepResult> as_given;
  double first_wall_s = 0;  // SweepRunner(kWorkerThreads) wall of sweeps[0]
  double wall_on_s = 0;
  double wall_off_s = 0;
};

// -- spec -------------------------------------------------------------------

void probe_spec(const ProbeInputs& inputs, Tracer& tracer, Metrics& m) {
  std::vector<double> per_text;
  for (const std::string& text : inputs.spec_texts) {
    const bool sweep = text.find("\"algorithms\"") != std::string::npos;
    per_text.push_back(median_call(
        [&] {
          Tracer::Scope span(tracer, "spec.parse_validate");
          std::string error;
          if (sweep) {
            const auto spec = pef::parse_sweep_spec(text, &error);
            if (spec) (void)spec->validate();
          } else {
            const auto spec = pef::parse_scenario_spec(text, &error);
            if (spec) (void)spec->validate();
          }
        },
        // Many texts (the serve pool): a few calls each; one text: enough
        // calls to time it.
        inputs.spec_texts.size() > 50 ? 5 : 20,
        inputs.spec_texts.size() > 50 ? 0.0 : 0.002));
  }
  double sum = 0;
  for (const double t : per_text) sum += t;
  m.add("spec.parse_ms", ms(sum / static_cast<double>(per_text.size())), "ms");
}

// -- plan -------------------------------------------------------------------

void probe_plan(const ProbeInputs& inputs, Tracer& tracer, Metrics& m) {
  std::uint64_t groups = 0;
  std::uint64_t batched = 0;
  double widths = 0;
  Tracer::Scope span(tracer, "plan.plan_batch");
  for (const pef::SweepSpec& spec : inputs.sweeps) {
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      for (std::size_t d = 0; d < spec.adversaries.size(); ++d) {
        for (const ExecutionModel model : spec.models) {
          for (const std::uint32_t n : spec.ring_sizes) {
            for (const std::uint32_t k : spec.robot_counts) {
              if (k >= n) continue;
              const pef::BatchPlan plan = pef::plan_batch(
                  model, n, k, spec.seeds.size(),
                  spec.batch_seeds ? spec.max_batch : 1);
              ++groups;
              if (plan.use_batch()) ++batched;
              widths += plan.width;
            }
          }
        }
      }
    }
  }
  const double g = static_cast<double>(std::max<std::uint64_t>(groups, 1));
  m.add("plan.batched_ratio", static_cast<double>(batched) / g, "ratio");
  m.add("plan.mean_width", widths / g, "count");
}

// -- sweep_runner, cycle, json ----------------------------------------------

SweepRuns probe_sweeps(const ProbeInputs& inputs, Tracer& tracer,
                       RunOutcome& outcome) {
  Metrics& m = outcome.metrics;
  SweepRuns runs;
  const pef::SweepRunner runner(kWorkerThreads);
  std::vector<double> group_walls;
  double busy_sum = 0;
  std::uint64_t engaged = 0;
  std::uint64_t cells = 0;
  double simulated = 0;
  double covered = 0;
  for (const pef::SweepSpec& spec : inputs.sweeps) {
    std::mutex mutex;
    for (const bool fast_forward : {spec.fast_forward, !spec.fast_forward}) {
      pef::SweepSpec variant = spec;
      variant.fast_forward = fast_forward;
      const auto t0 = Clock::now();
      pef::SweepResult result;
      {
        // The run as given is the sweep_runner layer's; the toggled run
        // exists only to answer the fast-forward question.
        Tracer::Scope span(tracer, fast_forward == spec.fast_forward
                                       ? "sweep_runner.run"
                                       : fast_forward ? "cycle.sweep_ff_on"
                                                      : "cycle.sweep_ff_off");
        result = runner.run(variant, {}, [&](std::uint64_t, std::uint64_t,
                                             double wall) {
          std::lock_guard<std::mutex> lock(mutex);
          group_walls.push_back(wall);
          busy_sum += wall;
        });
      }
      const double wall = seconds_since(t0);
      (fast_forward ? runs.wall_on_s : runs.wall_off_s) += wall;
      if (fast_forward) {
        for (const pef::SweepCell& cell : result.cells) {
          const bool hit = cell.rounds_covered > 0;
          ++cells;
          engaged += hit ? 1 : 0;
          simulated += static_cast<double>(hit ? cell.rounds_simulated : cell.horizon);
          covered += static_cast<double>(hit ? cell.rounds_covered : cell.horizon);
        }
      }
      if (fast_forward == spec.fast_forward) {
        if (runs.as_given.empty()) runs.first_wall_s = wall;
        runs.as_given.push_back(std::move(result));
      }
    }
  }
  m.add("cycle.engaged_ratio",
        static_cast<double>(engaged) / static_cast<double>(std::max<std::uint64_t>(cells, 1)),
        "ratio");
  m.add("cycle.simulated_ratio", covered > 0 ? simulated / covered : 1, "ratio");
  m.add("cycle.net_speedup", runs.wall_off_s / runs.wall_on_s, "ratio");
  if (!m.has("sweep_runner.busy_ratio")) {
    m.add("sweep_runner.busy_ratio",
          busy_sum / (kWorkerThreads * (runs.wall_on_s + runs.wall_off_s)),
          "ratio");
    m.add("sweep_runner.group_ms_p50", ms(median(group_walls)), "ms");
    m.add("sweep_runner.group_ms_max",
          ms(*std::max_element(group_walls.begin(), group_walls.end())), "ms");
  }

  // json: serialization of the sweeps' results, and a 4-way shard split of
  // the largest one merged back.
  std::vector<std::string> documents;
  const double serialize = median_call(
      [&] {
        documents.clear();
        for (const pef::SweepResult& result : runs.as_given) {
          Tracer::Scope span(tracer, "json.serialize");
          documents.push_back(result.to_json());
        }
      },
      3, 0.01);
  if (!m.has("json.serialize_ms")) {
    std::uint64_t bytes = 0;
    for (const std::string& doc : documents) bytes += doc.size();
    m.add("json.serialize_ms", ms(serialize), "ms");
    m.add("json.result_bytes", static_cast<double>(bytes), "bytes");
  }
  const pef::SweepResult& full = runs.as_given.front();
  const std::uint64_t total = full.cells.size();
  std::vector<std::string> shards;
  for (std::uint32_t i = 0; i < 4; ++i) {
    pef::SweepResult part;
    part.first_cell = total * i / 4;
    const std::uint64_t end = total * (i + 1) / 4;
    part.total_cells = total;
    part.shard = {i, 4};
    part.spec_json = inputs.sweeps.front().to_json();
    part.cells.assign(full.cells.begin() + static_cast<std::ptrdiff_t>(part.first_cell),
                      full.cells.begin() + static_cast<std::ptrdiff_t>(end));
    shards.push_back(part.to_shard_json());
  }
  std::optional<std::string> merged;
  const double merge = median_call(
      [&] {
        Tracer::Scope span(tracer, "json.merge_sweep_shards");
        std::string error;
        merged = pef::merge_sweep_shards(shards, &error);
      },
      3, 0.01);
  m.add("json.merge_ms", ms(merge), "ms");
  ++outcome.attempted;
  if (!merged || *merged != documents.front()) {
    ++outcome.failed;
    outcome.failures.push_back("probe: 4-way shard merge differs from to_json()");
  }
  return runs;
}

// -- dynamic_graph and engine -----------------------------------------------

/// Keeps the probed edge words observable, so the calls are not elided.
volatile std::uint64_t edge_sink = 0;

/// Seconds per edge-prologue round for one adversary on an n-ring.
double edge_seconds_per_round(const pef::AdversaryConfig& config,
                              std::uint32_t n, std::uint32_t k,
                              std::uint64_t seed, pef::Time horizon) {
  const pef::Ring ring(n);
  pef::AdversaryPtr adversary = pef::adversary_from_config(config, ring, seed, k);
  const auto* oblivious =
      dynamic_cast<const pef::ObliviousAdversary*>(adversary.get());
  std::vector<pef::RobotSnapshot> robots;
  for (const pef::RobotPlacement& p : pef::spread_placements(ring, k)) {
    pef::RobotSnapshot snapshot;
    snapshot.node = p.node;
    snapshot.chirality = p.chirality;
    robots.push_back(snapshot);
  }
  const pef::Configuration gamma(ring, robots);
  std::vector<std::uint64_t> words(pef::edge_word_count(ring.edge_count()) + 1);
  std::uint64_t sink = 0;
  pef::Time t = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  while (elapsed < 0.01) {
    const pef::Time end = t + horizon;
    if (oblivious != nullptr) {
      for (; t < end; ++t) {
        oblivious->schedule()->edges_into_words(t, words.data());
        sink += words[0];
      }
    } else {
      for (; t < end; ++t) {
        sink += adversary->choose_edges(t, gamma).words()[0];
      }
    }
    elapsed = seconds_since(t0);
  }
  edge_sink = sink;
  return elapsed / static_cast<double>(t);
}

void probe_engine(const ProbeInputs& inputs, Tracer& tracer, Metrics& m) {
  // Edge prologue alone, per adversary and ring size.
  std::map<std::pair<std::string, std::uint32_t>, double> edge_s_per_round;
  std::map<std::string, bool> time_invariant;
  for (const pef::AdversaryConfig& config : probe_adversaries()) {
    const std::string slug = adversary_slug(config);
    double rounds = 0;
    double seconds = 0;
    {
      Tracer::Scope span(tracer, "dynamic_graph." + slug);
      for (const std::uint32_t n : inputs.ring_sizes) {
        const double per_round = edge_seconds_per_round(
            config, n, inputs.robot_counts.front(), inputs.seeds.front(),
            inputs.horizon);
        edge_s_per_round[{slug, n}] = per_round;
        rounds += 1;
        seconds += per_round;
      }
    }
    // Rounds per second at equal rounds per ring size (the harmonic mean
    // of the per-size rates).
    m.add("dynamic_graph." + slug + ".edge_rounds_per_s", rounds / seconds, "1/s");
    const pef::Ring ring(inputs.ring_sizes.front());
    auto adversary = pef::adversary_from_config(config, ring, 1, 3);
    const auto* oblivious =
        dynamic_cast<const pef::ObliviousAdversary*>(adversary.get());
    time_invariant[slug] =
        oblivious != nullptr && oblivious->schedule()->time_invariant();
  }

  // Single-thread engine throughput per (adversary, model) sub-grid.
  const pef::SweepRunner runner(1);
  double native_edge_s = 0;
  double native_cell_s = 0;
  for (const pef::AdversaryConfig& config : probe_adversaries()) {
    const std::string slug = adversary_slug(config);
    for (const ExecutionModel model : probe_models()) {
      pef::SweepSpec sub;
      sub.algorithms = {inputs.algorithm};
      sub.adversaries = {config};
      sub.models = {model};
      sub.ring_sizes = inputs.ring_sizes;
      sub.robot_counts = inputs.robot_counts;
      sub.seeds = inputs.seeds;
      sub.horizon = inputs.horizon;
      const std::string name =
          "engine." + slug + "." + model_slug(model);
      const auto t0 = Clock::now();
      pef::SweepResult result;
      {
        Tracer::Scope span(tracer, name);
        result = runner.run(sub);
      }
      const double wall = seconds_since(t0);
      m.add(name + ".rounds_per_s",
            static_cast<double>(result.total_rounds()) / wall, "1/s");
      const bool native =
          std::find(inputs.native.begin(), inputs.native.end(),
                    std::make_pair(slug, model)) != inputs.native.end();
      if (!native) continue;
      native_cell_s += wall;
      if (time_invariant[slug]) continue;  // filled once, not per round
      for (const pef::SweepCell& cell : result.cells) {
        native_edge_s += static_cast<double>(cell.horizon) *
                         edge_s_per_round[{slug, cell.nodes}];
      }
    }
  }
  m.add("dynamic_graph.share",
        native_cell_s > 0 ? native_edge_s / native_cell_s : 0, "ratio");
}

// -- analysis ---------------------------------------------------------------

/// A traced Engine run built exactly as run_experiment builds it, without
/// the trace analyses.
void traced_engine_run(const pef::ScenarioSpec& spec) {
  const pef::ExperimentConfig config = pef::to_experiment_config(spec);
  const pef::Ring ring(config.nodes);
  pef::AdversaryPtr adversary = pef::adversary_from_config(
      config.adversary, ring, config.seed, config.robots, config.topology);
  const auto placements = pef::spread_placements(ring, config.robots);
  pef::EngineOptions options;
  options.record_trace = true;
  if (config.model == ExecutionModel::kFsync) {
    pef::Engine engine(ring, config.algorithm, std::move(adversary), placements,
                       options);
    engine.run(config.horizon);
    return;
  }
  auto wrapped =
      std::make_unique<pef::SsyncFromFsyncAdversary>(std::move(adversary));
  if (config.model == ExecutionModel::kSsync) {
    pef::Engine engine(ring, config.algorithm, std::move(wrapped),
                       pef::standard_ssync_activation(config.activation_p,
                                                      config.seed),
                       placements, options);
    engine.run(config.horizon);
  } else {
    pef::Engine engine(ring, config.algorithm, std::move(wrapped),
                       pef::standard_async_phases(config.activation_p,
                                                  config.seed),
                       placements, options);
    engine.run(config.horizon);
  }
}

std::vector<std::pair<std::string, std::string>> probe_analysis(
    const ProbeInputs& inputs, Tracer& tracer, Metrics& m) {
  std::vector<std::pair<std::string, std::string>> results;
  std::vector<double> scenario_ms;
  std::vector<double> engine_ms;
  for (const pef::ScenarioSpec& spec : inputs.scenarios) {
    auto t0 = Clock::now();
    std::string result;
    {
      Tracer::Scope span(tracer, "analysis.run_scenario");
      result = pef::run_result_to_json(pef::run_scenario(spec));
    }
    scenario_ms.push_back(ms(seconds_since(t0)));
    t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "engine.traced_run");
      traced_engine_run(spec);
    }
    engine_ms.push_back(ms(seconds_since(t0)));
    results.emplace_back(spec.to_json(), std::move(result));
  }
  m.add("analysis.scenario_ms_p50", median(scenario_ms), "ms");
  m.add("engine.traced_ms_p50", median(engine_ms), "ms");
  return results;
}

// -- cache ------------------------------------------------------------------

void probe_cache(const RunConfig& config,
                 const std::vector<std::pair<std::string, std::string>>& feed,
                 Tracer& tracer, Metrics& m) {
  const std::string dir = config.work_dir + "/probe-cache";
  remove_tree(dir);
  pef::serve::ResultCache cache(256ull << 20, dir);
  std::vector<double> lookups;
  std::vector<double> inserts;
  for (const auto& [key, value] : feed) {
    auto t0 = Clock::now();
    bool hit = false;
    {
      Tracer::Scope span(tracer, "cache.lookup");
      hit = cache.lookup(key).has_value();
    }
    lookups.push_back(seconds_since(t0) * 1e6);
    if (hit) continue;
    t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "cache.insert");
      cache.insert(key, value);
    }
    inserts.push_back(seconds_since(t0) * 1e6);
  }
  m.add("cache.lookup_us_p50", median(lookups), "us");
  m.add("cache.insert_us_p50", median(inserts), "us");
  m.add("cache.evictions", static_cast<double>(cache.stats().evictions), "count");
  remove_tree(dir);
}

// -- serve ------------------------------------------------------------------

/// Submit up to four of the workload's scenarios to a fresh daemon, each
/// cold then warm; `requests` pairs the spec text with its expected bytes.
void probe_serve(const RunConfig& config,
                 const std::vector<std::pair<std::string, std::string>>& requests,
                 Tracer& tracer, RunOutcome& outcome) {
  Metrics& m = outcome.metrics;
  const std::string dir = config.work_dir + "/probe-serve";
  Daemon daemon;
  std::vector<RequestTiming> timings;
  {
    Tracer::Scope span(tracer, "serve.daemon_start");
    if (daemon.start(config, dir) < 0) {
      outcome.failures.push_back("probe: pef_serve did not start");
      ++outcome.failed;
      ++outcome.attempted;
      return;
    }
  }
  std::vector<const std::string*> expected;
  std::uint64_t request = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, requests.size()); ++i) {
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      Tracer::Scope span(tracer, "serve.request", ++request);
      timings.push_back(timed_submit(daemon.socket_path(), requests[i].first,
                                     tracer, request, span.id()));
      expected.push_back(&requests[i].second);
    }
  }
  ServeCounters counters;
  (void)daemon.stats(&counters);
  double rss = 0;
  (void)daemon.stop(&rss);
  remove_tree(dir);

  std::vector<double> connect, ack, wait, transfer, hit, miss;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const RequestTiming& t = timings[i];
    ++outcome.attempted;
    if (!t.ok || t.result != *expected[i]) {
      ++outcome.failed;
      outcome.failures.push_back("probe: served bytes differ: " + t.error);
      continue;
    }
    connect.push_back(ms(t.connect_s));
    ack.push_back(ms(t.ack_s));
    wait.push_back(ms(t.wait_s));
    transfer.push_back(ms(t.transfer_s));
    (t.cached ? hit : miss).push_back(ms(t.total_s));
  }
  const double submits =
      static_cast<double>(std::max<std::uint64_t>(counters.submits, 1));
  m.add("serve.connect_ms_p50", median(connect), "ms");
  m.add("serve.ack_ms_p50", median(ack), "ms");
  m.add("serve.wait_ms_p50", quantile(wait, 0.5), "ms");
  m.add("serve.wait_ms_p99", quantile(wait, 0.99), "ms");
  m.add("serve.transfer_ms_p50", median(transfer), "ms");
  m.add("serve.hit_latency_ms_p50", median(hit), "ms");
  m.add("serve.miss_latency_ms_p50", median(miss), "ms");
  m.add("serve.hit_ratio", static_cast<double>(counters.cache_hits) / submits,
        "ratio");
  m.add("serve.coalesced_ratio",
        static_cast<double>(counters.coalesced) / submits, "ratio");
  m.add("serve.cells_computed", static_cast<double>(counters.cells_computed),
        "count");
}

// -- orchestrator -----------------------------------------------------------

void probe_orchestrator(const RunConfig& config, const ProbeInputs& inputs,
                        const std::string& expected, double in_process_wall,
                        Tracer& tracer, RunOutcome& outcome) {
  Metrics& m = outcome.metrics;
  const std::string dir = config.work_dir + "/probe-orchestrate";
  remove_tree(dir);
  (void)make_dirs(dir);
  (void)write_file(dir + "/spec.json", inputs.sweeps.front().to_json());
  const OrchestrateRun run = run_orchestrate(config, dir, tracer, 0);
  remove_tree(dir);
  ++outcome.attempted;
  if (run.exit_code != 0 || run.merged != expected) {
    ++outcome.failed;
    outcome.failures.push_back("probe: orchestrated merge differs (exit " +
                               std::to_string(run.exit_code) + ")");
  }
  std::uint64_t launches = 0;
  std::uint64_t failures = 0;
  double shard_max = 0;
  report_counters(run.report, &launches, &failures, &shard_max);
  m.add("orchestrator.launches", static_cast<double>(launches), "count");
  m.add("orchestrator.failures", static_cast<double>(failures), "count");
  m.add("orchestrator.shard_wall_ms_max", shard_max, "ms");
  m.add("orchestrator.overhead_s", run.wall_s - in_process_wall, "s");
}

}  // namespace

void run_probes(const RunConfig& config, const ProbeInputs& inputs,
                Tracer& tracer, RunOutcome& outcome) {
  Tracer::Scope root(tracer, "bench.probes");
  Metrics& m = outcome.metrics;
  probe_spec(inputs, tracer, m);
  probe_plan(inputs, tracer, m);
  const SweepRuns runs = probe_sweeps(inputs, tracer, outcome);
  probe_engine(inputs, tracer, m);
  const auto scenarios = probe_analysis(inputs, tracer, m);
  auto feed = inputs.cache_feed;
  feed.insert(feed.end(), scenarios.begin(), scenarios.end());
  probe_cache(config, feed, tracer, m);
  if (!inputs.has_serve) probe_serve(config, scenarios, tracer, outcome);
  const std::string expected = runs.as_given.front().to_json();
  if (!inputs.has_orchestrator) {
    probe_orchestrator(config, inputs, expected, runs.first_wall_s, tracer,
                       outcome);
  }
}

void finish_trace(const RunConfig& config, const Tracer& tracer, double wall_s,
                  RunOutcome& outcome) {
  if (!tracer.write_jsonl(config.spans_path)) {
    outcome.failures.push_back("cannot write the span file " + config.spans_path);
    ++outcome.failed;
  } else {
    outcome.notes.push_back("spans: " + std::to_string(tracer.span_count()) +
                            " written to " + config.spans_path);
  }
  static const char* const kLayers[] = {
      "spec",   "plan",     "sweep_runner", "dynamic_graph", "engine", "cycle",
      "analysis", "json",   "serve",        "cache",         "orchestrator"};
  const auto self = tracer.self_seconds_by_layer();
  const auto counts = tracer.span_counts_by_layer();
  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "self time (traced run, %.2f s wall; spans "
                "on concurrent threads add up)\n", wall_s);
  table << line;
  std::snprintf(line, sizeof line, "  %-14s %8s %10s %9s\n", "layer", "spans",
                "self_s", "share");
  table << line;
  const auto row = [&](const std::string& layer) {
    const auto s = self.find(layer);
    const auto c = counts.find(layer);
    const double seconds = s != self.end() ? s->second : 0;
    std::snprintf(line, sizeof line, "  %-14s %8llu %10.4f %8.1f%%\n",
                  layer.c_str(),
                  static_cast<unsigned long long>(c != counts.end() ? c->second : 0),
                  seconds, 100 * seconds / wall_s);
    table << line;
    return seconds;
  };
  for (const char* layer : kLayers) {
    outcome.metrics.add(std::string(layer) + ".self_s", row(layer), "s");
  }
  (void)row("bench");
  std::snprintf(line, sizeof line,
                "  readings: dynamic_graph.share=%.4f cycle.net_speedup=%.4f "
                "cycle.engaged_ratio=%.4f",
                outcome.metrics.value("dynamic_graph.share"),
                outcome.metrics.value("cycle.net_speedup"),
                outcome.metrics.value("cycle.engaged_ratio"));
  table << line;
  outcome.notes.push_back(table.str());
}

}  // namespace perfbench
