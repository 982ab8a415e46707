// Cycle detection for deterministic executions, and the knobs that control
// exact-stat fast-forward.
//
// A run whose every component is deterministic and finite-state (robot
// poses + kernel memory, activation phase, edge-schedule phase) must enter
// a cycle; once one global state recurs, the whole execution repeats with
// that period forever.  The engines exploit this: they fingerprint the
// packed state at environment-aligned rounds with a cheap 64-bit hash
// (Brent's algorithm keeps exactly one anchor snapshot), verify every hash
// hit by exact state comparison — a collision is counted and skipped, never
// silently trusted — and then extrapolate all reported statistics over the
// remaining whole periods in closed form, replaying only the final partial
// period so the result is bit-identical to the full run.
//
// "Environment-aligned" means rounds t with t >= env_start and
// (t - env_start) % env_period == 0, where env_period is the lcm of the
// edge schedule's recurrence period (ScheduleRecurrence) and the activation
// policy's period (FSYNC and full activation: 1; round-robin: its cycle
// length).  Sampling on that lattice makes the environment a pure function
// of the sampled state, so state equality really implies a cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "dynamic_graph/schedule.hpp"
#include "scheduler/ssync.hpp"

namespace pef {

/// Engine-level fast-forward knobs.  `hash_mask` narrows the fingerprint —
/// production uses the full 64 bits; tests mask it down to force hash
/// collisions and exercise the exact-verify path.
struct FastForwardOptions {
  bool enabled = false;
  std::uint64_t hash_mask = ~std::uint64_t{0};
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
/// function of its sampled state (adaptive edges, Bernoulli or unknown
/// virtual activation, no known edge recurrence) or the lattice is coarser
/// than kMaxEnvPeriod.  The one eligibility rule Engine and BatchEngine
/// share.
[[nodiscard]] inline std::optional<EnvLattice> env_lattice(
    const EdgeSchedule* schedule, ActivationBatchKind activation,
    std::uint32_t robots) {
  Time activation_period = 1;
  if (activation == ActivationBatchKind::kRoundRobin) {
    activation_period = robots;
  } else if (activation != ActivationBatchKind::kFull) {
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

/// FNV-1a over a stream of 64-bit words — cheap, stateless, good enough as
/// a first-pass filter (every hit is exact-verified anyway).
struct StateHash {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    value ^= word;
    value *= 0x100000001b3ULL;
  }
};

/// Brent's cycle finder over an externally packed state stream, holding one
/// anchor snapshot.  Feed it environment-aligned samples in order; it
/// reports the cycle length (in samples) as soon as the current sample
/// exactly equals the anchor.
class BrentDetector {
 public:
  explicit BrentDetector(std::uint64_t hash_mask = ~std::uint64_t{0})
      : hash_mask_(hash_mask) {}

  /// Observe the next sample.  Returns the cycle length in SAMPLES (> 0)
  /// when `packed` exactly matches the anchor snapshot; 0 otherwise.
  Time observe(const std::vector<std::uint64_t>& packed,
               std::uint64_t hash) {
    hash &= hash_mask_;
    if (!have_anchor_) {
      set_anchor(packed, hash);
      return 0;
    }
    ++lam_;
    if (hash == anchor_hash_) {
      if (packed == anchor_) return lam_;
      ++collisions_;
    }
    if (lam_ == power_) {
      // Re-anchor at powers of two: guarantees detection once the anchor
      // lands inside the cycle, with O(1) snapshots alive at a time.
      power_ *= 2;
      lam_ = 0;
      set_anchor(packed, hash);
    }
    return 0;
  }

  /// Hash hits whose exact comparison failed (forced in tests by masking).
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

 private:
  void set_anchor(const std::vector<std::uint64_t>& packed,
                  std::uint64_t hash) {
    anchor_ = packed;
    anchor_hash_ = hash;
    have_anchor_ = true;
  }

  std::uint64_t hash_mask_;
  bool have_anchor_ = false;
  Time lam_ = 0;
  Time power_ = 1;
  std::uint64_t anchor_hash_ = 0;
  std::vector<std::uint64_t> anchor_;
  std::uint64_t collisions_ = 0;
};

}  // namespace pef
