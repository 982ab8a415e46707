// serve-mix: a fresh pef_serve per pass, driven by a closed loop of two
// client threads, one connection per request.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace {

// Two clients next to the daemon's one worker keep the runnable threads
// (client or connection thread per client, plus the worker) under the
// four vCPUs; with four clients, hit latency followed the host's load.
constexpr std::uint32_t kClients = 2;
constexpr int kSetupRepeats = 10;

struct ServePass {
  double setup_s = -1;
  double wall_s = 0;
  std::vector<RequestTiming> timings;  // by request position
  ServeCounters counters;
  bool stats_ok = false;
  int exit_code = -1;
  double peak_rss_mb = 0;
};

/// Untraced request: exactly what pef_client does.
RequestTiming plain_submit(const std::string& socket_path,
                           const std::string& spec_text) {
  RequestTiming timing;
  const auto t0 = Clock::now();
  pef::serve::Client client;
  if (!client.connect_unix(socket_path, 10, &timing.error)) return timing;
  auto result = client.submit_and_stream(spec_text, nullptr, &timing.cached,
                                         nullptr, &timing.error);
  timing.total_s = seconds_since(t0);
  if (!result) return timing;
  timing.result = std::move(*result);
  timing.ok = true;
  return timing;
}

ServePass run_pass(const RunConfig& config, const ServeLoad& load,
                   Tracer& tracer, std::size_t pass_index) {
  ServePass pass;
  pass.timings.resize(load.requests.size());
  const std::string dir =
      config.work_dir + "/serve-" + std::to_string(pass_index);
  Daemon daemon;
  pass.setup_s = daemon.start(config, dir);
  if (pass.setup_s < 0) return pass;

  const std::int64_t root = tracer.begin("bench.pass", pass_index);
  std::atomic<std::size_t> cursor{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= load.requests.size()) return;
        const std::string& text = load.pool[load.requests[i]].text;
        if (tracer.enabled()) {
          const std::int64_t span = tracer.begin("serve.request", i + 1, root);
          pass.timings[i] =
              timed_submit(daemon.socket_path(), text, tracer, i + 1, span);
          tracer.end(span);
        } else {
          pass.timings[i] = plain_submit(daemon.socket_path(), text);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  pass.wall_s = seconds_since(t0);
  tracer.end(root);

  pass.stats_ok = daemon.stats(&pass.counters);
  pass.exit_code = daemon.stop(&pass.peak_rss_mb);
  remove_tree(dir);
  return pass;
}

/// In-process reference bytes for every pool entry (kClients threads).
std::vector<std::string> reference_results(const ServeLoad& load) {
  std::vector<std::string> results(load.pool.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      const pef::SweepRunner runner(1);
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= load.pool.size()) return;
        const PoolEntry& entry = load.pool[i];
        if (entry.is_sweep) {
          results[i] = runner.run(parse_sweep_or_die(entry.text)).to_json();
        } else {
          std::string error;
          const auto spec = pef::parse_scenario_spec(entry.text, &error);
          results[i] = spec ? pef::run_result_to_json(pef::run_scenario(*spec))
                            : "unparseable: " + error;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

}  // namespace

RunOutcome run_serve_workload(const RunConfig& config) {
  RunOutcome outcome;
  const ServeLoad load = serve_load(config.seed, config.tiny);
  const std::size_t requests = load.requests.size();
  // Rounds computed per pass: every pool entry misses once on a fresh
  // daemon, repeats are cache hits or coalesced.
  std::uint64_t rounds = 0;
  for (const PoolEntry& entry : load.pool) rounds += entry.rounds;

  // Set-up: daemon spawn until its socket accepts, sampled on every pass's
  // daemon and on extra daemons at the start and after every pass, so the
  // median spans the run.
  std::vector<double> setups;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      Daemon daemon;
      const std::string dir = config.work_dir + "/setup";
      const double setup = daemon.start(config, dir);
      if (setup >= 0) setups.push_back(setup);
      double ignored = 0;
      (void)daemon.stop(&ignored);
      remove_tree(dir);
    }
  };
  set_up();

  Tracer tracer(config.trace);
  Tracer off(false);
  std::vector<ServePass> plain;
  std::vector<ServePass> traced;
  const auto start = Clock::now();
  while (time_for_another(start, config.seconds, plain.size())) {
    plain.push_back(run_pass(config, load, off, plain.size()));
    if (plain.back().setup_s < 0) break;
    set_up();
    if (config.trace) {
      traced.push_back(run_pass(config, load, tracer, plain.size()));
      if (traced.back().setup_s < 0) break;
    }
  }

  // Output checks: every served result equals the in-process bytes of its
  // spec, and the daemon counted every submission.
  const std::vector<std::string> reference = reference_results(load);
  std::vector<ServePass*> all;
  for (ServePass& pass : plain) all.push_back(&pass);
  for (ServePass& pass : traced) all.push_back(&pass);
  if (config.corrupt) {
    std::string& victim = plain.back().timings.front().result;
    if (!victim.empty()) victim[victim.size() / 2] ^= 1;
  }
  for (const ServePass* pass : all) {
    outcome.attempted += requests;
    if (pass->setup_s < 0) {
      outcome.failed += requests;
      outcome.failures.push_back("pef_serve did not start");
      continue;
    }
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < requests; ++i) {
      const RequestTiming& timing = pass->timings[i];
      if (!timing.ok) {
        ++bad;
        if (bad == 1) outcome.failures.push_back("request failed: " + timing.error);
      } else if (timing.result != reference[load.requests[i]]) {
        ++bad;
        if (bad == 1) {
          outcome.failures.push_back("served bytes differ from the in-process "
                                     "result for pool entry " +
                                     std::to_string(load.requests[i]));
        }
      }
    }
    if (!pass->stats_ok || pass->counters.submits != requests) {
      outcome.failures.push_back("daemon counted " +
                                 std::to_string(pass->counters.submits) +
                                 " submits for " + std::to_string(requests) +
                                 " requests");
      bad = std::max<std::uint64_t>(bad, 1);
    }
    if (pass->exit_code != 0) {
      outcome.failures.push_back("pef_serve exited with " +
                                 std::to_string(pass->exit_code));
      bad = std::max<std::uint64_t>(bad, 1);
    }
    outcome.failed += bad;
  }

  const auto collect = [&](const std::vector<ServePass>& passes,
                           auto&& field) {
    std::vector<double> values;
    for (const ServePass& pass : passes) {
      for (const RequestTiming& timing : pass.timings) {
        if (timing.ok) field(timing, values);
      }
    }
    return values;
  };
  std::vector<double> walls;
  std::vector<double> rss;
  for (const ServePass& pass : plain) {
    walls.push_back(pass.wall_s);
    setups.push_back(pass.setup_s);
    rss.push_back(pass.peak_rss_mb);
  }
  const double wall = median(walls);
  std::vector<std::vector<double>> latencies;
  std::size_t latency_samples = 0;
  for (const ServePass& pass : plain) {
    latencies.emplace_back();
    for (const RequestTiming& timing : pass.timings) {
      if (timing.ok) latencies.back().push_back(timing.total_s);
    }
    latency_samples += latencies.back().size();
  }
  const auto hit_latencies = collect(plain, [](const RequestTiming& t, auto& v) {
    if (t.cached) v.push_back(t.total_s);
  });
  const auto miss_latencies = collect(plain, [](const RequestTiming& t, auto& v) {
    if (!t.cached) v.push_back(t.total_s);
  });
  outcome.notes.push_back(
      "workload serve-mix: " + std::to_string(load.pool.size()) +
      " pool specs, " + std::to_string(requests) + " requests per pass, " +
      std::to_string(kClients) + " closed-loop clients, " +
      std::to_string(plain.size()) + " untraced passes");
  outcome.notes.push_back(
      "latency samples: " + std::to_string(latency_samples) + " over " +
      std::to_string(latencies.size()) + " passes (hits " +
      std::to_string(hit_latencies.size()) + ", hit p50 " +
      format_ms(median(hit_latencies)) + "; misses " +
      std::to_string(miss_latencies.size()) + ", miss p50 " +
      format_ms(median(miss_latencies)) + ")");
  std::string list;
  for (std::size_t p = 0; p < walls.size(); ++p) {
    list += " " + std::to_string(walls[p]) + "/" + std::to_string(rss[p]);
  }
  outcome.notes.push_back("pass walls (s) / daemon peak RSS (MB):" + list);

  if (!config.trace) {
    Metrics& m = outcome.metrics;
    m.add("setup_s", median(setups), "s");
    outcome.notes.push_back("setup samples: " + describe_ms(setups));
    m.add("wall_s", wall, "s");
    m.add("rounds_per_s", static_cast<double>(rounds) / wall, "1/s");
    m.add("requests_per_s", static_cast<double>(requests) / wall, "1/s");
    m.add("latency_p50_ms", median_of_quantiles(latencies, 0.5) * 1e3, "ms");
    m.add("latency_p99_ms", median_of_quantiles(latencies, 0.99) * 1e3, "ms");
    m.add("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MB");
    return outcome;
  }

  // Per-layer metrics from the traced passes' client-side timestamps and
  // the daemon's stats op.
  const auto phase = [&](double RequestTiming::*member) {
    return collect(traced, [member](const RequestTiming& t, auto& v) {
      v.push_back(t.*member);
    });
  };
  Metrics& m = outcome.metrics;
  m.add("serve.connect_ms_p50", median(phase(&RequestTiming::connect_s)) * 1e3,
        "ms");
  m.add("serve.ack_ms_p50", median(phase(&RequestTiming::ack_s)) * 1e3, "ms");
  const auto waits = phase(&RequestTiming::wait_s);
  m.add("serve.wait_ms_p50", quantile(waits, 0.5) * 1e3, "ms");
  m.add("serve.wait_ms_p99", quantile(waits, 0.99) * 1e3, "ms");
  m.add("serve.transfer_ms_p50",
        median(phase(&RequestTiming::transfer_s)) * 1e3, "ms");
  const auto traced_hits = collect(traced, [](const RequestTiming& t, auto& v) {
    if (t.cached) v.push_back(t.total_s);
  });
  const auto traced_misses = collect(traced, [](const RequestTiming& t, auto& v) {
    if (!t.cached) v.push_back(t.total_s);
  });
  m.add("serve.hit_latency_ms_p50", median(traced_hits) * 1e3, "ms");
  m.add("serve.miss_latency_ms_p50", median(traced_misses) * 1e3, "ms");
  std::uint64_t submits = 0;
  std::uint64_t hits = 0;
  std::uint64_t coalesced = 0;
  std::vector<double> cells_computed;
  std::vector<double> traced_walls;
  for (const ServePass& pass : traced) {
    submits += pass.counters.submits;
    hits += pass.counters.cache_hits;
    coalesced += pass.counters.coalesced;
    cells_computed.push_back(static_cast<double>(pass.counters.cells_computed));
    traced_walls.push_back(pass.wall_s);
  }
  m.add("serve.hit_ratio",
        static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(submits, 1)),
        "ratio");
  m.add("serve.coalesced_ratio",
        static_cast<double>(coalesced) /
            static_cast<double>(std::max<std::uint64_t>(submits, 1)),
        "ratio");
  m.add("serve.cells_computed", median(cells_computed), "count");
  m.add("trace.overhead_ratio", median(traced_walls) / wall, "ratio");

  ProbeInputs inputs;
  inputs.has_serve = true;
  std::size_t scenario_count = 0;
  for (std::size_t i = 0; i < load.pool.size(); ++i) {
    const PoolEntry& entry = load.pool[i];
    inputs.spec_texts.push_back(entry.text);
    if (entry.is_sweep) {
      inputs.sweeps.push_back(parse_sweep_or_die(entry.text));
    } else if (scenario_count++ % 9 == 0) {
      // Every 9th scenario (35 of 315): it walks the n x horizon x model
      // strata with the adversary rotating.
      inputs.scenarios.push_back(*pef::parse_scenario_spec(entry.text, nullptr));
    }
  }
  std::stable_sort(inputs.sweeps.begin(), inputs.sweeps.end(),
                   [](const pef::SweepSpec& a, const pef::SweepSpec& b) {
                     return pef::count_sweep_cells(a) > pef::count_sweep_cells(b);
                   });
  for (const std::uint32_t r : load.requests) {
    inputs.cache_feed.emplace_back(load.pool[r].text, reference[r]);
  }
  for (const pef::AdversaryConfig& adversary : probe_adversaries()) {
    for (const pef::ExecutionModel model : probe_models()) {
      inputs.native.emplace_back(adversary_slug(adversary), model);
    }
  }
  inputs.algorithm = "pef3+";
  inputs.ring_sizes = config.tiny ? std::vector<std::uint32_t>{16}
                                  : std::vector<std::uint32_t>{32, 128};
  inputs.robot_counts = {3, 5};
  inputs.seeds = {config.seed * 4 + 1, config.seed * 4 + 2, config.seed * 4 + 3,
                  config.seed * 4 + 4};
  inputs.horizon = config.tiny ? 200 : 2000;

  run_probes(config, inputs, tracer, outcome);
  finish_trace(config, tracer, seconds_since(start), outcome);
  return outcome;
}

}  // namespace perfbench
