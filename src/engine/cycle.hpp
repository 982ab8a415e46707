// Cycle detection and exact-stat fast-forward for deterministic executions.
//
// A run whose every component is deterministic and finite-state (robot
// poses + kernel memory, activation phase, edge-schedule phase) must enter
// a cycle; once one global state recurs, the whole execution repeats with
// that period forever.  Both engines exploit this through one CycleTracker
// (the solo Engine is the one-lane case of the BatchEngine's per-lane
// trackers):
//
//   search  - Brent's algorithm over environment-aligned samples keeps one
//             anchor: each sample is compared word by word against it
//             straight from the engine's state visitor, stopping at the
//             first differing word, and copied only when Brent re-anchors.
//             Equality is exact, so a reported cycle is a true recurrence;
//   measure - one more live period closes every revisit gap that wraps the
//             detection point and yields the per-period deltas of moves,
//             tower rounds, tower formations and per-node visit counts
//             (independent of where in the cycle the window starts);
//   armed   - the engine asks for the closed-form skip: every whole period
//             left before the horizon is added as delta * reps, and the
//             engine replays only the final partial period, so the result
//             is bit-identical to the full run.
//
// "Environment-aligned" means rounds t with t >= env_start and
// (t - env_start) % env_period == 0, where env_period is the lcm of the
// edge schedule's recurrence period (ScheduleRecurrence) and the activation
// policy's period (FSYNC and full activation: 1; round-robin: its cycle
// length).  Sampling on that lattice makes the environment a pure function
// of the sampled state, so state equality really implies a cycle.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "dynamic_graph/schedule.hpp"
#include "scheduler/ssync.hpp"

namespace pef {

/// Aggregates the engines maintain incrementally every round, so sweeps get
/// their metrics without recording a trace.  Visit semantics match
/// analyze_coverage(): configuration times 0..rounds, one visit per robot.
struct EngineStats {
  Time rounds = 0;
  std::uint64_t total_moves = 0;
  /// Configuration times (of rounds+1 many) at which some node held >= 2
  /// robots.
  Time tower_rounds = 0;
  /// Number of towered episodes: maximal runs of consecutive boundaries at
  /// which some tower existed (a transition from a towerless boundary to a
  /// towered one counts 1).  Coarser than analyze_towers'
  /// tower_formation_count, which tracks per-node / per-robot-set events —
  /// use a recorded trace when that granularity matters.
  std::uint64_t tower_formations = 0;
  std::uint32_t visited_node_count = 0;
  std::optional<Time> cover_time;
};

/// Environment periods above this are not worth detecting: the detector
/// would sample too sparsely to pay off within any realistic horizon.
inline constexpr Time kMaxEnvPeriod = Time{1} << 20;

/// The environment-aligned sampling lattice: t >= start with
/// (t - start) % period == 0.
struct EnvLattice {
  Time period = 1;
  Time start = 0;
};

/// The lattice of a run whose edges come from `schedule` (null: an adaptive
/// adversary) and whose robots act under `activation` (kFull for FSYNC)
/// with `robots` robots — or nullopt when the run's future is not a pure
/// function of its sampled state (adaptive edges, Bernoulli activation, no
/// known edge recurrence) or the lattice is coarser than kMaxEnvPeriod.
/// The one eligibility rule Engine and BatchEngine share.
[[nodiscard]] inline std::optional<EnvLattice> env_lattice(
    const EdgeSchedule* schedule, ActivationKind activation,
    std::uint32_t robots) {
  Time activation_period = 1;
  if (activation == ActivationKind::kRoundRobin) {
    activation_period = robots;
  } else if (activation != ActivationKind::kFull) {
    return std::nullopt;
  }
  if (schedule == nullptr) return std::nullopt;
  const ScheduleRecurrence recurrence = schedule->recurrence();
  if (recurrence.period == 0) return std::nullopt;
  const Time period =
      combine_recurrence_periods(recurrence.period, activation_period);
  if (period == 0 || period > kMaxEnvPeriod) return std::nullopt;
  return EnvLattice{period, recurrence.start};
}

/// One run's (or one batch lane's) fast-forward machine.  The engine calls
/// observe() at every boundary t == next() and skip() once the tracker is
/// kArmed.  A state visitor is a callable `words(sink)` that feeds the
/// run's deterministic state to `sink(std::uint64_t) -> bool` in a fixed
/// word order, stops as soon as the sink returns false, and returns
/// whether it fed every word.
class CycleTracker {
 public:
  enum class Stage : std::uint8_t {
    kOff = 0,  // ineligible or not started: never observes
    kSearch,   // Brent's search on the lattice
    kMeasure,  // cycle verified; measuring one live period of deltas
    kArmed,    // deltas ready; waiting for skip()
    kDone,     // skipped, or the horizon left no whole period to skip
  };
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// Start a fresh search on `lattice` at its first sample at or after
  /// `from`.  Rounds skipped by earlier searches stay counted.
  void start(EnvLattice lattice, Time from) {
    stage_ = Stage::kSearch;
    lattice_ = lattice;
    next_ = lattice.start;
    if (from > next_) {
      next_ += (from - next_ + lattice.period - 1) / lattice.period *
               lattice.period;
    }
    anchor_.clear();
    lam_ = 0;
    power_ = 1;
  }

  [[nodiscard]] Stage stage() const { return stage_; }
  /// The boundary at which observe() must run next (kNever: none).
  [[nodiscard]] Time next() const { return next_; }
  /// The verified cycle length in rounds (0 until a cycle is found).
  [[nodiscard]] Time period() const { return period_; }
  /// Rounds covered by closed-form skips rather than execution.
  [[nodiscard]] Time skipped() const { return skipped_; }
  /// Visits the last skip added to node `u` (> 0 exactly for the nodes
  /// visited in the cycle, whose last-visit stamps move with the skip).
  [[nodiscard]] std::uint64_t visits_added(std::uint32_t u) const {
    return visits_[u] * reps_;
  }

  /// Advance the machine at boundary t == next() of a run ending at
  /// `horizon`.  `stats` and `visit_count(u)` for u < `nodes` are the
  /// run's counters at t; `words` is its state visitor.
  template <typename VisitCount, typename StateWords>
  void observe(Time t, Time horizon, const EngineStats& stats,
               std::uint32_t nodes, VisitCount&& visit_count,
               StateWords&& words) {
    next_ = kNever;
    if (stage_ == Stage::kMeasure) {
      // The delta window closed: the snapshots become per-period deltas.
      moves_ = stats.total_moves - moves_;
      tower_rounds_ = stats.tower_rounds - tower_rounds_;
      tower_formations_ = stats.tower_formations - tower_formations_;
      for (std::uint32_t u = 0; u < nodes; ++u) {
        visits_[u] = visit_count(u) - visits_[u];
      }
      stage_ = Stage::kArmed;
      return;
    }
    const Time samples = search(words);
    if (samples == 0) {
      next_ = t + lattice_.period;
      return;
    }
    period_ = samples * lattice_.period;
    // Worth engaging only when the measurement period AND at least one
    // whole skipped repetition fit before the horizon.
    if (horizon - t < 2 * period_) {
      stage_ = Stage::kDone;
      return;
    }
    moves_ = stats.total_moves;
    tower_rounds_ = stats.tower_rounds;
    tower_formations_ = stats.tower_formations;
    visits_.resize(nodes);
    for (std::uint32_t u = 0; u < nodes; ++u) visits_[u] = visit_count(u);
    stage_ = Stage::kMeasure;
    next_ = t + period_;
  }

  /// kArmed -> kDone at time `now`: add every whole period left before
  /// `horizon` to `stats`' moves and tower counters in closed form and
  /// return the rounds skipped (0: no whole period fits).  The engine then
  /// adds visits_added(u) to each node's count, moves the in-cycle nodes'
  /// last-visit stamps and its clock by the returned span, and replays the
  /// final partial period.
  Time skip(Time now, Time horizon, EngineStats& stats) {
    stage_ = Stage::kDone;
    reps_ = (horizon - now) / period_;
    stats.total_moves += moves_ * reps_;
    stats.tower_rounds += tower_rounds_ * reps_;
    stats.tower_formations += tower_formations_ * reps_;
    const Time span = period_ * reps_;
    skipped_ += span;
    return span;
  }

 private:
  /// Brent's step on one sample: the cycle length in SAMPLES when the
  /// sample equals the anchor, 0 otherwise.  Re-anchoring at powers of two
  /// guarantees detection once the anchor lands inside the cycle, and the
  /// first match is then the minimal period.
  template <typename StateWords>
  Time search(StateWords&& words) {
    if (!anchor_.empty()) {
      ++lam_;
      std::size_t i = 0;
      const bool whole = words([&](std::uint64_t word) {
        return i < anchor_.size() && anchor_[i++] == word;
      });
      if (whole && i == anchor_.size()) return lam_;
      if (lam_ != power_) return 0;
      power_ *= 2;
      lam_ = 0;
      anchor_.clear();
    }
    words([&](std::uint64_t word) {
      anchor_.push_back(word);
      return true;
    });
    return 0;
  }

  Stage stage_ = Stage::kOff;
  EnvLattice lattice_;
  Time next_ = kNever;
  // Brent's anchor and counters.
  std::vector<std::uint64_t> anchor_;
  Time lam_ = 0;
  Time power_ = 1;
  Time period_ = 0;
  // Snapshots at the measure window's start, then per-period deltas.
  std::uint64_t moves_ = 0;
  Time tower_rounds_ = 0;
  std::uint64_t tower_formations_ = 0;
  std::vector<std::uint64_t> visits_;
  // The closed-form skip.
  Time reps_ = 0;
  Time skipped_ = 0;
};

}  // namespace pef
