// Engine — the unified throughput execution core.
//
// One engine, three execution models (the paper's Section 1 taxonomy):
//
//   FSYNC - every robot runs an atomic Look-Compute-Move every round
//           (the paper's model; reference: scheduler/Simulator);
//   SSYNC - an activation rule selects a subset each round, only
//           selected robots run L-C-M (reference: SsyncSimulator);
//   ASYNC - the same rule picks the robots that advance their own
//           Look / Compute / Move machine one phase per tick, with
//           possibly-stale views (reference: AsyncSimulator).
//
// The rule is an ActivationRule (scheduler/ssync.hpp) run through
// fill_activation, as in the reference simulators and BatchEngine; the
// ActivationPolicy / PhaseScheduler argument types only pick the SSYNC or
// the ASYNC constructor.
//
// Compute runs the algorithm's kernel (robot/kernel.hpp,
// algorithms/kernels.hpp): enum-dispatched compute over POD state held in
// one contiguous vector, dispatched once per round.  The reference engines
// run the same kernel one robot at a time; differential tests
// (tests/fast_engine_test.cpp and tests/unified_engine_test.cpp) pin every
// model's round machinery to its reference engine round-by-round, so the
// engine is interchangeable with them — just faster:
//
//   * struct-of-arrays robot state: parallel vectors for node, local dir,
//     chirality and POD kernel memory;
//   * a per-node occupancy histogram maintained incrementally, making the
//     Look phase's multiplicity predicate O(1) per robot;
//   * a reusable EdgeSet scratch buffer: oblivious schedules and SSYNC
//     adversaries refill it in place (choose_edges_into) — zero allocation
//     per round;
//   * reusable activation/phase masks: fill_activation refills a
//     persistent byte buffer instead of returning a fresh vector per round;
//   * one persistent Configuration mirror updated in place (O(moves) per
//     round) for adaptive adversaries and SSYNC/ASYNC adversaries, never a
//     fresh snapshot per round;
//   * snapshot() / trace materialization only on demand — with trace
//     recording off, the engine keeps only O(n + k) state and a handful of
//     incrementally maintained aggregates.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "common/types.hpp"
#include "engine/cycle.hpp"
#include "robot/algorithm.hpp"
#include "robot/kernel.hpp"
#include "robot/robot.hpp"
#include "robot/view.hpp"
#include "scheduler/async.hpp"
#include "scheduler/ssync.hpp"
#include "scheduler/trace.hpp"

namespace pef {

/// The activation model an Engine runs (the paper's Section 1 taxonomy).
enum class ExecutionModel : std::uint8_t {
  kFsync = 0,
  kSsync = 1,
  kAsync = 2,
};

[[nodiscard]] constexpr const char* to_string(ExecutionModel m) {
  switch (m) {
    case ExecutionModel::kFsync:
      return "fsync";
    case ExecutionModel::kSsync:
      return "ssync";
    case ExecutionModel::kAsync:
      return "async";
  }
  return "?";
}

/// Parse "fsync" | "ssync" | "async"; nullopt on anything else.
[[nodiscard]] std::optional<ExecutionModel> parse_execution_model(
    const std::string& name);

struct EngineOptions {
  /// Record a full Trace (positions, dirs, edge sets per round).  Off by
  /// default: the engine's niche is long timing sweeps; flip it on when the
  /// run feeds trace-based analysis (towers, legality audits, rendering).
  bool record_trace = false;

  /// Enforce the paper's well-initiated execution requirements: strictly
  /// fewer robots than nodes and a towerless initial configuration.
  bool enforce_well_initiated = true;

  /// Cycle detection + exact stat extrapolation for run() (engine/cycle.hpp).
  /// Only engages on fully deterministic configurations (oblivious periodic
  /// edge schedule, full or round-robin activation, no trace); anything else
  /// silently runs the plain round loop.  Results are bit-identical either
  /// way.
  bool fast_forward = false;
};

class Engine {
 public:
  /// FSYNC: every robot, every round, against a (possibly adaptive)
  /// FSYNC adversary.
  Engine(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
         const std::vector<RobotPlacement>& placements,
         EngineOptions options = {});

  /// SSYNC: `activation` selects the L-C-M subset each round; the adversary
  /// sees the configuration and the activation mask.
  Engine(Ring ring, AlgorithmPtr algorithm,
         std::unique_ptr<SsyncAdversary> adversary,
         ActivationPolicy activation,
         const std::vector<RobotPlacement>& placements,
         EngineOptions options = {});

  /// ASYNC: `phases` advances per-robot Look/Compute/Move machines one
  /// phase per tick; the adversary sees the set of robots whose Move fires.
  Engine(Ring ring, AlgorithmPtr algorithm,
         std::unique_ptr<SsyncAdversary> adversary,
         PhaseScheduler phases,
         const std::vector<RobotPlacement>& placements,
         EngineOptions options = {});

  /// Execute one round (FSYNC/SSYNC) or one scheduler tick (ASYNC).
  void step();

  /// Execute `rounds` further rounds/ticks.
  void run(Time rounds);

  [[nodiscard]] ExecutionModel model() const { return model_; }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t robot_count() const {
    return static_cast<std::uint32_t>(node_.size());
  }

  [[nodiscard]] NodeId robot_node(RobotId r) const { return node_[r]; }
  [[nodiscard]] LocalDirection robot_dir(RobotId r) const {
    return static_cast<LocalDirection>(dir_[r]);
  }
  [[nodiscard]] Chirality robot_chirality(RobotId r) const {
    return Chirality(right_cw_[r] != 0);
  }
  /// Pending phase of robot `r` — ASYNC only.
  [[nodiscard]] Phase phase_of(RobotId r) const;

  /// Robots currently on node `u` — O(1) from the occupancy histogram.
  [[nodiscard]] std::uint32_t robots_on(NodeId u) const { return occ_[u]; }

  /// Materialize the current configuration (the gamma at the start of the
  /// next round).  On-demand: costs O(k), the hot loop never calls it.
  [[nodiscard]] Configuration snapshot() const;

  /// Incrementally maintained aggregates (always available).
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Fast-forward telemetry.  rounds_simulated() is the number of rounds
  /// actually executed (== stats().rounds unless a cycle was skipped);
  /// detected_period() is 0 when no cycle engaged.
  [[nodiscard]] bool fast_forwarded() const { return cycle_.skipped() > 0; }
  [[nodiscard]] Time rounds_simulated() const {
    return stats_.rounds - cycle_.skipped();
  }
  [[nodiscard]] Time detected_period() const {
    return fast_forwarded() ? cycle_.period() : 0;
  }

  /// Coverage report equivalent to analyze_coverage(trace) but computed from
  /// the incremental per-node bookkeeping — available without a trace.
  [[nodiscard]] CoverageReport coverage_report(Time suffix_window = 0) const;

  /// Only valid when options.record_trace was set.
  [[nodiscard]] const Trace& trace() const { return *trace_; }
  [[nodiscard]] bool recording_trace() const { return trace_ != nullptr; }

  /// The FSYNC adversary — FSYNC model only.
  [[nodiscard]] Adversary& adversary();

 private:
  void init(const std::vector<RobotPlacement>& placements);
  void observe_boundary(Time t);  // visit/tower bookkeeping at config time t
  /// The run's sampling lattice, or nullopt when some component of the
  /// run is not provably deterministic and periodic (env_lattice's rule;
  /// traced runs never fast-forward).
  [[nodiscard]] std::optional<EnvLattice> cycle_lattice() const;
  /// The CycleTracker state visitor: robot SoA + kernel memory + ASYNC
  /// phase machines, as 64-bit words.
  template <typename Sink>
  bool state_words(Sink&& sink) const;
  /// The step_* entry points dispatch ONCE per round on the kernel id, and
  /// ONLY the fused Look+Compute loop is instantiated per kernel: the
  /// algorithm's compute inlines into that loop body (no per-robot branch
  /// or indirect call).  Everything else — mask compaction, Move, trace
  /// records, the gamma mirror — is shared non-templated code, so each
  /// kernel instantiation stays a few cache lines instead of a whole round
  /// loop (per-robot mask branches and trace bookkeeping stay out of the
  /// per-kernel loop).
  void step_fsync();
  void step_ssync();
  void step_async();
  /// Fused Look+Compute over every robot (FSYNC).
  template <KernelId Id>
  void look_compute_all();
  /// Fused Look+Compute over a compacted index list (SSYNC activated set).
  template <KernelId Id>
  void look_compute_list(const std::vector<std::uint32_t>& idx);
  /// Compute over pending Look views for a compacted index list (ASYNC
  /// Compute phases); advances each robot's phase machine to Move.
  template <KernelId Id>
  void compute_pending_list(const std::vector<std::uint32_t>& idx);

  /// Robot `i`'s chirality-resolved geometry at its current node/dir: the
  /// single source of the ahead/behind edge mapping every Look and Move
  /// block shares (ahead == the pointed edge).
  struct RobotFrame {
    NodeId node;
    bool ahead_cw;
    EdgeId ahead;
    EdgeId behind;
  };
  [[nodiscard]] RobotFrame frame_of(RobotId i) const;
  /// The Look-phase snapshot of robot `i` against the current E_t and
  /// occupancy.
  [[nodiscard]] View look(const RobotFrame& frame) const;
  /// Apply the Move phase for robot `i`: cross `pointed` if present,
  /// keeping occupancy, stats and the gamma mirror consistent.  Returns
  /// whether the robot moved.
  bool apply_move(RobotId i, bool ahead_cw, EdgeId pointed);

  Ring ring_;
  AlgorithmPtr algorithm_;
  ExecutionModel model_ = ExecutionModel::kFsync;
  EngineOptions options_;
  Time now_ = 0;

  // FSYNC adversary (model == kFsync).
  AdversaryPtr adversary_;
  // SSYNC/ASYNC adversary, and the activation rule (SSYNC activation or
  // ASYNC phase schedule; full under FSYNC).
  std::unique_ptr<SsyncAdversary> ssync_adversary_;
  ActivationRule activation_;

  // Struct-of-arrays robot state.
  std::vector<NodeId> node_;
  std::vector<std::uint8_t> dir_;       // LocalDirection
  std::vector<std::uint8_t> right_cw_;  // Chirality::right_is_clockwise
  // Algorithm memory: the kernel plus one POD state per robot.
  KernelSpec kernel_;
  std::vector<KernelState> kstates_;

  // ASYNC phase machines + pending Look views.
  std::vector<Phase> phases_;
  std::vector<View> pending_views_;

  // Occupancy histogram + number of nodes currently holding >= 2 robots.
  std::vector<std::uint32_t> occ_;
  std::uint32_t multi_nodes_ = 0;
  bool prev_had_tower_ = false;

  // Reused per-round scratch.
  EdgeSet edges_;                    // E_t
  std::vector<std::uint8_t> moved_;  // per-robot moved flag (trace path)
  std::vector<std::uint64_t> mask_set_;  // mask_ as a robot bitset
  ActivationMask mask_;              // SSYNC activation / ASYNC advancing
  ActivationMask moving_;            // ASYNC: Move phases firing this tick
  // Compacted per-round index lists (built once per round from the masks so
  // the hot loops iterate dense indices instead of branching per robot).
  std::vector<std::uint32_t> active_list_;   // SSYNC: activated robots
  std::vector<std::uint32_t> look_list_;     // ASYNC: Look phases firing
  std::vector<std::uint32_t> compute_list_;  // ASYNC: Compute phases firing
  std::vector<std::uint32_t> move_list_;     // ASYNC: Move phases firing

  // Oblivious FSYNC fast path: when the adversary is an ObliviousAdversary
  // we call the schedule's in-place fill directly and never touch
  // gamma_mirror_.
  const EdgeSchedule* schedule_ = nullptr;
  // Persistent configuration mirror: FSYNC adaptive adversaries, and every
  // SSYNC/ASYNC run (policies and adversaries see gamma each round).
  std::unique_ptr<Configuration> gamma_mirror_;

  // Incremental coverage bookkeeping (analyze_coverage semantics).
  std::vector<std::uint64_t> visit_counts_;
  std::vector<Time> last_visit_;
  std::vector<std::uint8_t> visited_;
  Time max_closed_gap_ = 0;
  EngineStats stats_;

  CycleTracker cycle_;  // fast-forward (cycle.hpp)

  std::unique_ptr<Trace> trace_;
};

/// An Engine wired the way every FSYNC-battery entry point wires a solo run
/// (run_experiment, SweepRunner, pef_run; the solo counterpart of
/// wire_standard_replica): FSYNC takes `adversary` directly; SSYNC/ASYNC
/// adapt it through SsyncFromFsyncAdversary and run under the standard
/// seeded Bernoulli activation / phase scheduler, so solo and batched runs
/// of the same (model, seed) see identical streams.
[[nodiscard]] Engine make_standard_engine(
    Ring ring, ExecutionModel model, AlgorithmPtr algorithm,
    AdversaryPtr adversary, double activation_p, std::uint64_t seed,
    const std::vector<RobotPlacement>& placements, EngineOptions options = {});

}  // namespace pef
