// ScenarioSpec — the declarative, serializable scenario/sweep API.
//
// The experimental surface of the paper (algorithm × adversary × model ×
// n × k × seed) has one data-only description, shared by the harness, the
// sweep runner and pef_run's flags:
//
//   AdversaryConfig  {kind enum, params}   — a value, not a callable;
//   ScenarioSpec     one run               — n, k, algorithm, adversary,
//                                            model, horizon, seed;
//   SweepSpec        one sweep grid        — the axes + scheduling knobs.
//
// All three round-trip through JSON (common/json) byte-identically on
// canonical documents, validate with actionable error messages, and resolve
// to live objects only at run time:
//
//   adversary_from_config(config, ring, seed, robots)  -> AdversaryPtr
//   run_scenario(spec)                 (core/experiment.hpp)
//   SweepRunner().run(spec)            (engine/sweep_runner.hpp)
//
// Because a spec is plain data, it can be handed to another process —
// pef_sweep shards one SweepSpec across processes/machines and merges the
// outputs byte-identically to the unsharded run.
//
// The adversary registry below is the single source of truth for adversary
// names, parameters, defaults and descriptions; pef_run's --help and flag
// parsing, the standard battery, and the JSON parser all derive from it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "engine/engine.hpp"

namespace pef {

// ---------------------------------------------------------------------------
// Topology

/// The underlying graph family a scenario runs on.  A chain of n nodes is
/// the paper's closing remark made executable: a ring of n nodes whose edge
/// n-1 (between nodes n-1 and 0) never appears (dynamic_graph/chain.hpp).
enum class Topology : std::uint8_t {
  kRing = 0,
  kChain,
};

[[nodiscard]] const char* to_string(Topology topology);
[[nodiscard]] std::optional<Topology> parse_topology(const std::string& name);

// ---------------------------------------------------------------------------
// The adversary registry

enum class AdversaryKind : std::uint8_t {
  kStatic = 0,
  kBernoulli,
  kPeriodic,
  kTInterval,
  kBoundedAbsence,
  kEventualMissing,
  kAdaptiveMissing,
  kMarkov,
  kGreedyBlocker,
  kCage,
  kProof,
};

struct AdversaryParamInfo {
  const char* name;
  double default_value;
  const char* description;
};

struct AdversaryKindInfo {
  AdversaryKind kind = AdversaryKind::kStatic;
  /// Canonical name: the JSON "kind" value and the CLI --adversary value.
  const char* name = "";
  /// One-line description (pef_run --help is generated from this).
  const char* description = "";
  /// Declared parameters with defaults; configs may only set these.
  std::vector<AdversaryParamInfo> params;
  /// True for the genuinely adaptive lower-bound adversaries (they see the
  /// configuration); false for oblivious schedules.
  bool adaptive = false;
  /// Capability flag for the batched engine: true iff the resolved
  /// adversary is per-replica-independent (a pure function of time and its
  /// own seed stream, never of the configuration or activation mask), so
  /// BatchEngine can fill its edge words straight into the contiguous edge
  /// plane via the schedule's edges_into_words() and skip the replica's
  /// Configuration mirror.  Stateful / view-dependent kinds keep the
  /// mirror path (still batched, just with a per-lane mirror prologue).
  bool batchable = false;
};

/// Every adversary family, in canonical order.
[[nodiscard]] const std::vector<AdversaryKindInfo>& adversary_registry();

[[nodiscard]] const AdversaryKindInfo& adversary_kind_info(AdversaryKind kind);

/// Canonical name -> kind; nullopt on unknown names.
[[nodiscard]] std::optional<AdversaryKind> parse_adversary_kind(
    const std::string& name);

/// "static, bernoulli, periodic, ..." — for error messages and --help.
[[nodiscard]] std::string known_adversary_kinds();

// ---------------------------------------------------------------------------
// AdversaryConfig

struct AdversaryParam {
  std::string name;
  double value = 0;
};

/// A value description of one adversary: kind + sparse parameter overrides.
/// Copyable, comparable, serializable.
struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kStatic;
  /// Overrides of the registry defaults; names must be declared by `kind`.
  std::vector<AdversaryParam> params;

  /// Resolved value of a declared parameter (override or registry default).
  /// Aborts on parameter names the kind does not declare.
  [[nodiscard]] double param(const std::string& name) const;

  /// Set (or replace) an override.  Aborts on undeclared names.
  AdversaryConfig& set(const std::string& name, double value);

  /// Semantic equality: same kind and same *resolved* parameter values
  /// (explicit defaults compare equal to absent ones).
  [[nodiscard]] bool operator==(const AdversaryConfig& other) const;
};

[[nodiscard]] AdversaryConfig adversary_config(AdversaryKind kind);
[[nodiscard]] AdversaryConfig adversary_config(
    AdversaryKind kind, std::initializer_list<AdversaryParam> overrides);

/// The human-readable instance name, e.g. "bernoulli(p=0.5)" — exactly the
/// names the standard battery has always used (sweep baselines pin them).
[[nodiscard]] std::string adversary_display_name(const AdversaryConfig& config);

/// Resolve a config to a live adversary for one run.  `robots` feeds the
/// auto width of cage/proof (width 0 means min(robots + 1, n - 1)); pass the
/// scenario's k.  Seed derivation is pinned by the sweep baselines.  On
/// Topology::kChain the resolved adversary is restricted to
/// the chain: oblivious schedules are rewrapped in ChainSchedule::cut_last
/// (preserving the batchable word-plane fast path), adaptive adversaries get
/// the cut edge erased from every choice.
[[nodiscard]] AdversaryPtr adversary_from_config(
    const AdversaryConfig& config, const Ring& ring, std::uint64_t seed,
    std::uint32_t robots = 0, Topology topology = Topology::kRing);

/// Parameter-range validation; nullopt when fine, else an actionable
/// message.
[[nodiscard]] std::optional<std::string> validate_adversary(
    const AdversaryConfig& config);

/// The standard possibility-side battery (static, Bernoulli 0.1/0.5/0.9,
/// rotating periodic, T-interval, bounded-absence, eventual-missing,
/// adaptive-missing) as configs.
[[nodiscard]] std::vector<AdversaryConfig> standard_battery_configs();

void adversary_config_to_json(JsonWriter& json, const AdversaryConfig& config);
void adversary_config_to_json(JsonWriter& json, const std::string& key,
                              const AdversaryConfig& config);
[[nodiscard]] std::optional<AdversaryConfig> adversary_config_from_json(
    const JsonValue& value, std::string* error);

// ---------------------------------------------------------------------------
// ScenarioSpec

/// One fully-described run.  Plain data; `run_scenario()` in
/// core/experiment.hpp executes it.
struct ScenarioSpec {
  std::uint32_t nodes = 10;
  std::uint32_t robots = 3;
  Topology topology = Topology::kRing;
  /// Registry algorithm name; empty = the paper's recommendation for
  /// (robots, nodes) (see resolved_algorithm).
  std::string algorithm;
  AdversaryConfig adversary;
  ExecutionModel model = ExecutionModel::kFsync;
  /// SSYNC activation / ASYNC phase-advance probability; ignored by FSYNC.
  double activation_p = 0.5;
  Time horizon = 5000;
  std::uint64_t seed = 1;

  [[nodiscard]] bool operator==(const ScenarioSpec& other) const;

  /// Canonical single-line JSON (parse_scenario_spec inverts it exactly).
  [[nodiscard]] std::string to_json() const;

  /// Semantic validation; nullopt when runnable, else an actionable message.
  [[nodiscard]] std::optional<std::string> validate() const;
};

[[nodiscard]] std::optional<ScenarioSpec> scenario_spec_from_json(
    const JsonValue& value, std::string* error);
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario_spec(
    const std::string& json, std::string* error);

/// The algorithm the spec actually runs: spec.algorithm when set, else the
/// computability table's recommendation (falling back to the closest paper
/// algorithm for impossible pairs, so callers can watch the failure).
[[nodiscard]] std::string resolved_algorithm(const ScenarioSpec& spec);

// ---------------------------------------------------------------------------
// SweepSpec

/// One sweep grid: the cartesian product of the axes below, one engine run
/// per cell (cells with k >= n are skipped).  Plain data; SweepRunner
/// executes it.  batch_seeds / max_batch / random_placements are scheduling
/// and placement knobs serialized with the spec so a shard worker given only
/// the JSON reproduces the exact same cells.
struct SweepSpec {
  std::vector<std::string> algorithms;
  std::vector<AdversaryConfig> adversaries;
  std::vector<ExecutionModel> models = {ExecutionModel::kFsync};
  /// One topology for the whole grid (ring_sizes stays the node-count axis;
  /// on a chain, n nodes means the n-node chain cut from the n-ring).
  Topology topology = Topology::kRing;
  std::vector<std::uint32_t> ring_sizes;    // n
  std::vector<std::uint32_t> robot_counts;  // k
  std::vector<std::uint64_t> seeds;

  /// Per-robot SSYNC activation / ASYNC phase-advance probability.
  double activation_p = 0.5;

  /// Horizon of one run: `horizon` rounds when nonzero, else
  /// `horizon_per_node * n`.
  Time horizon = 0;
  Time horizon_per_node = 200;

  /// Uniformly random towerless placements (seeded per cell) when true,
  /// evenly spread with common chirality when false.
  bool random_placements = true;

  /// Run each seed group as one BatchEngine (purely a throughput knob; the
  /// per-seed results are bit-identical either way).
  bool batch_seeds = true;
  std::uint32_t max_batch = 64;

  /// Detect per-cell periodicity and extrapolate the remaining rounds in
  /// closed form (see engine/cycle.hpp).  Engages only on cells whose every
  /// component is deterministic (oblivious periodic schedules, non-Bernoulli
  /// activation); everything else silently runs plain.  Cell statistics are
  /// bit-identical either way — engaged cells additionally report
  /// rounds_covered / rounds_simulated.
  bool fast_forward = false;

  [[nodiscard]] Time horizon_for(std::uint32_t n) const {
    return horizon != 0 ? horizon : horizon_per_node * n;
  }

  [[nodiscard]] bool operator==(const SweepSpec& other) const;

  /// Canonical single-line JSON (parse_sweep_spec inverts it exactly).
  [[nodiscard]] std::string to_json() const;

  /// Semantic validation; nullopt when runnable, else an actionable message.
  [[nodiscard]] std::optional<std::string> validate() const;
};

[[nodiscard]] std::optional<SweepSpec> sweep_spec_from_json(
    const JsonValue& value, std::string* error);
[[nodiscard]] std::optional<SweepSpec> parse_sweep_spec(
    const std::string& json, std::string* error);

}  // namespace pef
