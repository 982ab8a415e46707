// The benchmark's workloads and layer probes.
//
// A run is one workload at one seed, untraced (end-to-end metrics) or
// traced (per-layer metrics).  Inputs come only from the seed: the
// generators below turn it into spec JSON text and a request list, which is
// all the program ever sees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/spec.hpp"

namespace perfbench {

/// Threads (sweeps) or concurrent single-threaded jobs (orchestrate) a
/// measured pass uses.  Half of a 4-vCPU box: with every vCPU busy, any
/// other runnable thread -- the OS, the benchmark's own bookkeeping, a
/// neighbour -- preempts a worker and stretches the pass's tail, which made
/// four-thread pass walls follow the host's load.
constexpr std::uint32_t kWorkerThreads = 2;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test; never used for measurements.
  bool tiny = false;
  /// Flip one byte of one checked output before the checks (self-test of
  /// the checks themselves).
  bool corrupt = false;
  std::string bin_dir;   // pef_serve / pef_orchestrate / pef_sweep
  std::string work_dir;  // working directory of this run (created, then removed)
  std::string spans_path;
};

struct RunOutcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable report lines (printed before the result line).
  std::vector<std::string> notes;
  /// One line per failed output check.
  std::vector<std::string> failures;
};

// ---------------------------------------------------------------------------
// Seeded inputs

[[nodiscard]] pef::SweepSpec stochastic_sweep(std::uint64_t seed, bool tiny);
[[nodiscard]] pef::SweepSpec crowded_sweep(std::uint64_t seed, bool tiny);

struct PoolEntry {
  std::string text;  // spec JSON as submitted
  bool is_sweep = false;
  std::uint64_t rounds = 0;  // sum of cell horizons
};

struct ServeLoad {
  std::vector<PoolEntry> pool;
  /// Pool indices in submission order: every entry once, then Zipf-skewed
  /// repeats, shuffled.
  std::vector<std::uint32_t> requests;
};

[[nodiscard]] ServeLoad serve_load(std::uint64_t seed, bool tiny);

/// The adversary kinds and models every engine / edge probe covers, so
/// every workload reports the same per-layer metric names.
[[nodiscard]] const std::vector<pef::AdversaryConfig>& probe_adversaries();
[[nodiscard]] const std::vector<pef::ExecutionModel>& probe_models();
[[nodiscard]] std::string adversary_slug(const pef::AdversaryConfig& config);

// ---------------------------------------------------------------------------
// Workloads

RunOutcome run_sweep_workload(const RunConfig& config);
RunOutcome run_serve_workload(const RunConfig& config);
RunOutcome run_orchestrate_workload(const RunConfig& config);

// ---------------------------------------------------------------------------
// Layer probes (traced runs)

/// What the probes run on: the workload's own inputs.
struct ProbeInputs {
  std::vector<std::string> spec_texts;
  /// The workload's sweeps; sweeps[0] is the largest (orchestrator probe).
  std::vector<pef::SweepSpec> sweeps;
  /// Scenarios for the analysis-vs-engine probe.
  std::vector<pef::ScenarioSpec> scenarios;
  /// (key, value) pairs for the cache probe, in workload order.
  std::vector<std::pair<std::string, std::string>> cache_feed;
  /// Engine / edge probe grid: algorithm, n and k values, seeds, horizon.
  std::string algorithm;
  std::vector<std::uint32_t> ring_sizes;
  std::vector<std::uint32_t> robot_counts;
  std::vector<std::uint64_t> seeds;
  pef::Time horizon = 0;
  /// (adversary slug, model) pairs the workload itself runs — the
  /// denominator set of dynamic_graph.share.
  std::vector<std::pair<std::string, pef::ExecutionModel>> native;
  /// Set when the workload already measured these (skip the probe).
  bool has_serve = false;
  bool has_orchestrator = false;
};

/// Run every layer probe the workload did not already measure and add its
/// metrics.  Spans go to `tracer`.
void run_probes(const RunConfig& config, const ProbeInputs& inputs,
                Tracer& tracer, RunOutcome& outcome);

/// Write the span file, and add the <layer>.self_s metrics and the
/// self-time table (share of the traced run's `wall_s`).
void finish_trace(const RunConfig& config, const Tracer& tracer, double wall_s,
                  RunOutcome& outcome);

// ---------------------------------------------------------------------------
// Shared by workloads and probes

/// Parse + validate a SweepSpec text; aborts on error (inputs are ours).
[[nodiscard]] pef::SweepSpec parse_sweep_or_die(const std::string& text);

/// Per-request client timings of one pef_serve conversation.
struct RequestTiming {
  double connect_s = 0;   // connect_unix
  double ack_s = 0;       // submit frame sent -> ack read
  double wait_s = 0;      // ack -> result header
  double transfer_s = 0;  // result header -> payload read
  double total_s = 0;     // connect start -> payload read
  bool cached = false;
  bool ok = false;
  std::string result;
  std::string error;
};

/// One submit conversation over raw frames, timing each phase; spans
/// serve.connect / serve.ack / serve.wait / serve.transfer under `parent`.
[[nodiscard]] RequestTiming timed_submit(const std::string& socket_path,
                                         const std::string& spec_text,
                                         Tracer& tracer, std::uint64_t request,
                                         std::int64_t parent);

/// The daemon counters the benchmark reads from the "stats" op.
struct ServeCounters {
  std::uint64_t submits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t cells_computed = 0;
};

/// A pef_serve daemon owned by the benchmark.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn in a fresh directory and wait until the socket accepts.
  /// Returns spawn-to-accept seconds, or a negative value on failure.
  double start(const RunConfig& config, const std::string& dir);
  /// The "stats" op; false on error.
  bool stats(ServeCounters* out);
  /// "shutdown" op, then reap.  Returns the exit code; *peak_rss_mb gets
  /// the daemon's peak RSS.
  int stop(double* peak_rss_mb);
  [[nodiscard]] const std::string& socket_path() const { return socket_; }

 private:
  std::string socket_;
  Child child_;
  bool running_ = false;
};

[[nodiscard]] std::string format_ms(double seconds);

/// One pef_orchestrate run of <dir>/spec.json: 8 shards, kWorkerThreads
/// jobs of one thread each, local backend; workdir, merge and report under
/// `dir`.
struct OrchestrateRun {
  double wall_s = 0;
  int exit_code = -1;
  double peak_rss_mb = 0;  // the largest process of the tree
  std::string merged;      // without the trailing newline
  std::string report;
};
[[nodiscard]] OrchestrateRun run_orchestrate(const RunConfig& config,
                                             const std::string& dir,
                                             Tracer& tracer,
                                             std::uint64_t request);

/// Orchestrator counters from a pef_orchestrate report.json: launches,
/// failures and the slowest shard's wall time.
void report_counters(const std::string& report, std::uint64_t* launches,
                     std::uint64_t* failures, double* shard_wall_ms_max);

}  // namespace perfbench
