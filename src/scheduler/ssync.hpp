// SSYNC (semi-synchronous) extension.
//
// The paper restricts its study to FSYNC because of the impossibility result
// of Di Luna et al. [10]: in SSYNC, an adversary that controls *activation*
// as well as edges defeats every exploration algorithm regardless of
// dynamicity assumptions — it can activate robots one at a time and remove
// the edge the activated robot wants to traverse, so no robot ever moves,
// while every edge remains recurrent (it is present whenever its robot is
// not activated).  This module reproduces that argument executably
// (bench_ssync_impossibility).
//
// Model: at each round a fair activation rule selects a subset of robots;
// selected robots perform an atomic Look-Compute-Move against the round's
// edge set; the others do nothing (and keep their state).
//
// The rule is a value, not a policy object: an ActivationRule (full,
// round-robin or Bernoulli-p over a seeded stream) and one inline
// fill_activation that turns it into round t's robot set.  The ASYNC model
// (scheduler/async.hpp) picks which robots advance a phase with the same
// rule, and every engine — the unified Engine with ExecutionModel::kSsync
// (src/engine/engine.hpp), every BatchEngine lane and the test-only
// reference simulators (tests/oracles/) — calls the same fill, so they all
// draw one Bernoulli stream in one order.  tests/activation_test.cpp pins
// each rule to masks written out by hand.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dynamic_graph/schedule.hpp"

namespace pef {

/// Per-robot activation flags for one round (1 = selected).  A plain byte
/// vector rather than vector<bool>: engines keep one mask alive and refill
/// it in place every round, and byte loads keep the hot loop branch-free.
using ActivationMask = std::vector<std::uint8_t>;

/// The fair activation rules.  SSYNC activates the selected robots' atomic
/// Look-Compute-Move; ASYNC advances each selected robot one phase.
enum class ActivationKind : std::uint8_t {
  kFull,        // every robot, every round (SSYNC = FSYNC; ASYNC lockstep)
  kRoundRobin,  // robot t mod k alone
  kBernoulli,   // each robot w.p. p from a seeded stream, forced non-empty
};

/// One activation rule: its kind and, for kBernoulli, the probability and
/// the stream the trials draw from.  A plain value: Engine, the reference
/// simulators and every BatchEngine lane each hold one and run it through
/// fill_activation, the only place a rule is written.
struct ActivationRule {
  ActivationKind kind = ActivationKind::kFull;
  double p = 1.0;
  Xoshiro256 rng{0};

  [[nodiscard]] static ActivationRule full() { return {}; }
  [[nodiscard]] static ActivationRule round_robin() {
    return {ActivationKind::kRoundRobin};
  }
  [[nodiscard]] static ActivationRule bernoulli(double p, std::uint64_t seed) {
    return {ActivationKind::kBernoulli, p, Xoshiro256(seed)};
  }
};

/// Words of a robot bitset over k robots: bit i % 64 of word i / 64 is
/// robot i.
[[nodiscard]] constexpr std::uint32_t robot_words(std::uint32_t k) {
  return (k + 63) / 64;
}

/// The Bernoulli rule's draw order, for N independent streams at once:
/// stream j draws k trials in robot order (robot i acts iff its trial
/// succeeds) and then, if none succeeded, one next_below(k) pick that acts
/// alone.  out[j] receives stream j's robot bitset.  The N streams advance
/// trial by trial side by side — BatchEngine overlaps four lanes' serial
/// xoshiro chains this way — which leaves each stream's own draw order the
/// same for every N.  The caller passes local copies of the streams, so
/// no store into `out` can alias a generator.
template <std::size_t N>
inline void bernoulli_activation(Xoshiro256 (&rng)[N], const double (&p)[N],
                                 std::uint32_t k,
                                 std::uint64_t* const (&out)[N]) {
  bool any[N] = {};
  for (std::uint32_t w = 0; w < robot_words(k); ++w) {
    const std::uint32_t trials = std::min<std::uint32_t>(k - 64 * w, 64);
    std::uint64_t bits[N] = {};
    for (std::uint32_t i = 0; i < trials; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        bits[j] |= std::uint64_t{rng[j].next_bool(p[j])} << i;
      }
    }
    for (std::size_t j = 0; j < N; ++j) {
      out[j][w] = bits[j];
      any[j] = any[j] || bits[j] != 0;
    }
  }
  for (std::size_t j = 0; j < N; ++j) {
    if (!any[j]) {
      const std::uint64_t i = rng[j].next_below(k);
      out[j][i / 64] |= 1ULL << (i % 64);
    }
  }
}

/// Round t's activation set over k robots under `rule`, as a robot bitset
/// of robot_words(k) words in `out`.  Only kBernoulli reads or advances
/// the rule's state.
inline void fill_activation(ActivationRule& rule, Time t, std::uint32_t k,
                            std::uint64_t* out) {
  const std::uint32_t words = robot_words(k);
  switch (rule.kind) {
    case ActivationKind::kFull:
      std::fill_n(out, words, ~0ULL);
      if (k % 64 != 0) out[words - 1] = (1ULL << (k % 64)) - 1;
      return;
    case ActivationKind::kRoundRobin: {
      std::fill_n(out, words, 0);
      const Time i = t % k;
      out[i / 64] = 1ULL << (i % 64);
      return;
    }
    case ActivationKind::kBernoulli: {
      Xoshiro256 rng[1] = {rule.rng};
      const double p[1] = {rule.p};
      std::uint64_t* const sets[1] = {out};
      bernoulli_activation(rng, p, k, sets);
      rule.rng = rng[0];
      return;
    }
  }
}

/// fill_activation as a byte mask (Engine, the reference simulators and
/// SsyncAdversary speak ActivationMask); `set` is the caller's reusable
/// bitset scratch.  The bits expand eight at a time: the multiply copies a
/// byte of the set into all eight byte lanes, the AND keeps bit j in lane
/// j, and the add carries any kept bit into the lane's top bit.
inline void fill_activation(ActivationRule& rule, Time t, std::uint32_t k,
                            std::vector<std::uint64_t>& set,
                            ActivationMask& mask) {
  set.resize(robot_words(k));
  fill_activation(rule, t, k, set.data());
  mask.resize(k);
  static_assert(std::endian::native == std::endian::little);
  constexpr std::uint64_t kLanes = 0x0101010101010101ULL;
  for (std::uint32_t i = 0; i < k; i += 8) {
    const std::uint64_t byte = (set[i / 64] >> (i % 64)) & 0xff;
    const std::uint64_t bytes =
        ((((byte * kLanes) & 0x8040201008040201ULL) + 0x7f * kLanes) >> 7) &
        kLanes;
    std::memcpy(mask.data() + i, &bytes, std::min<std::uint32_t>(k - i, 8));
  }
}

/// The SSYNC Engine constructor's activation argument: an ActivationRule
/// under the type name that picks that constructor (PhaseScheduler, in
/// scheduler/async.hpp, picks the ASYNC one).
struct ActivationPolicy {
  ActivationRule rule;
};

/// The standard seeded activation policy used by every entry point that
/// maps the FSYNC adversary battery onto SSYNC (SweepRunner,
/// run_scenario, pef_run): Bernoulli(p) over a stream derived from `seed`
/// with one shared salt, so fast and reference runs of the same
/// (model, seed) see identical activation streams.
[[nodiscard]] inline ActivationPolicy standard_ssync_activation(
    double p, std::uint64_t seed) {
  return {ActivationRule::bernoulli(p, derive_seed(seed, 0x55ac))};
}

/// The SSYNC adversary: sees the configuration *and* the activation mask.
class SsyncAdversary {
 public:
  virtual ~SsyncAdversary() = default;
  [[nodiscard]] virtual const Ring& ring() const = 0;
  [[nodiscard]] virtual EdgeSet choose_edges(
      Time t, const Configuration& gamma,
      const ActivationMask& activated) = 0;
  /// In-place variant for engine hot loops: refill a caller-owned scratch
  /// set (already sized to ring().edge_count()).  The default falls back to
  /// choose_edges(); hot families override it to run allocation-free.
  virtual void choose_edges_into(Time t, const Configuration& gamma,
                                 const ActivationMask& activated,
                                 EdgeSet& out) {
    out = choose_edges(t, gamma, activated);
  }
  /// Non-null iff this adversary is a pure function of time (it reads
  /// neither gamma nor the activation mask): the wrapped oblivious
  /// schedule.  BatchEngine uses it to route a replica's edge sets through
  /// the schedule's word-plane filler and to skip that replica's
  /// Configuration mirror entirely.  Conservative default: nullptr.
  [[nodiscard]] virtual const EdgeSchedule* oblivious_schedule() const {
    return nullptr;
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The [10]-style blocker: removes both adjacent edges of every activated
/// robot; every other edge present.  No robot ever moves, yet each edge is
/// present at every round in which its incident robots are inactive — with
/// fair non-full activation every edge is recurrent.
class SsyncBlockingAdversary final : public SsyncAdversary {
 public:
  explicit SsyncBlockingAdversary(Ring ring) : ring_(ring) {}
  [[nodiscard]] const Ring& ring() const override { return ring_; }
  [[nodiscard]] EdgeSet choose_edges(Time t, const Configuration& gamma,
                                     const ActivationMask& activated) override {
    EdgeSet edges(ring_.edge_count());
    choose_edges_into(t, gamma, activated, edges);
    return edges;
  }
  void choose_edges_into(Time, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override {
    out.fill();
    for (RobotId r = 0; r < gamma.robot_count(); ++r) {
      if (activated[r] == 0) continue;
      const NodeId u = gamma.robot(r).node;
      out.erase(ring_.adjacent_edge(u, GlobalDirection::kClockwise));
      out.erase(ring_.adjacent_edge(u, GlobalDirection::kCounterClockwise));
    }
  }
  [[nodiscard]] std::string name() const override { return "ssync-blocker"; }

 private:
  Ring ring_;
};

/// Adapts any FSYNC Adversary — oblivious or adaptive — to the SSYNC/ASYNC
/// interface by ignoring the activation mask.  This is how the sweep grid
/// and pef_run reuse the standard adversary battery across every execution
/// model.
class SsyncFromFsyncAdversary final : public SsyncAdversary {
 public:
  explicit SsyncFromFsyncAdversary(AdversaryPtr inner)
      : inner_(std::move(inner)) {
    // Mirror the Engine's FSYNC fast path: oblivious inner adversaries are
    // pure functions of time, so choose_edges_into can refill the scratch
    // set allocation-free via the schedule.
    if (const auto* oblivious =
            dynamic_cast<const ObliviousAdversary*>(inner_.get())) {
      schedule_ = oblivious->schedule().get();
    }
  }
  [[nodiscard]] const Ring& ring() const override { return inner_->ring(); }
  [[nodiscard]] EdgeSet choose_edges(Time t, const Configuration& gamma,
                                     const ActivationMask&) override {
    return inner_->choose_edges(t, gamma);
  }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask&, EdgeSet& out) override {
    if (schedule_ != nullptr) {
      schedule_->edges_into(t, out);
    } else {
      out = inner_->choose_edges(t, gamma);
    }
  }
  [[nodiscard]] const EdgeSchedule* oblivious_schedule() const override {
    return schedule_;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  AdversaryPtr inner_;
  const EdgeSchedule* schedule_ = nullptr;  // non-null iff inner is oblivious
};

}  // namespace pef
