// The oblivious schedule library.
//
// Each class below produces one family of connected-over-time (or
// deliberately *not* connected-over-time, for negative tests) evolving rings:
//
//   StaticSchedule               every edge present at every round
//   RecordedSchedule             explicit per-round edge sets (+ tail rule)
//   BernoulliSchedule            iid presence with probability p (recurrent
//                                with probability 1 => connected-over-time)
//   PeriodicSchedule             edge e present iff t mod period_e < duty_e
//                                (the "public transport" model of [16, 19])
//   TIntervalConnectedSchedule   at most one edge missing at any time; the
//                                missing edge changes every T rounds
//                                (the model of [10, 20], T-interval
//                                connectivity on a ring)
//   EventualMissingEdgeSchedule  one designated edge vanishes forever after
//                                a given round; others follow a base
//                                schedule (the hardest legal single-trace
//                                behaviour for PEF_3+: forces sentinels)
//   BoundedAbsenceSchedule       random absences, but never more than A
//                                consecutive rounds per edge
//   SurgerySchedule              G \ {(e_1, tau_1), ..., (e_k, tau_k)} — the
//                                proof-surgery operator of Section 2.1
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dynamic_graph/schedule.hpp"

namespace pef {

// ---------------------------------------------------------------------------
// StaticSchedule

class StaticSchedule final : public EdgeSchedule {
 public:
  explicit StaticSchedule(Ring ring) : ring_(ring) {}

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  [[nodiscard]] EdgeSet edges_at(Time) const override {
    return EdgeSet::all(ring_.edge_count());
  }
  void edges_into(Time, EdgeSet& out) const override { out.fill(); }
  void edges_into_words(Time, std::uint64_t* words) const override {
    fill_edge_words(words, ring_.edge_count());
  }
  [[nodiscard]] bool time_invariant() const override { return true; }
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  Ring ring_;
};

// ---------------------------------------------------------------------------
// RecordedSchedule

/// What a RecordedSchedule returns after its explicit prefix is exhausted.
enum class TailRule : std::uint8_t {
  kAllPresent,   // every edge present after the prefix
  kRepeatLast,   // repeat the final explicit set forever
  kCyclePrefix,  // loop the prefix periodically
};

class RecordedSchedule final : public EdgeSchedule {
 public:
  RecordedSchedule(Ring ring, std::vector<EdgeSet> rounds,
                   TailRule tail = TailRule::kAllPresent);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  [[nodiscard]] EdgeSet edges_at(Time t) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // kAllPresent / kRepeatLast hold one fixed set once the prefix ends;
    // kCyclePrefix is periodic from round 0 with the prefix as its period.
    const Time prefix = static_cast<Time>(rounds_.size());
    if (tail_ == TailRule::kCyclePrefix) {
      return {prefix == 0 ? Time{1} : prefix, Time{0}};
    }
    return {Time{1}, prefix};
  }
  [[nodiscard]] std::string name() const override { return "recorded"; }

  [[nodiscard]] std::size_t prefix_length() const { return rounds_.size(); }

 private:
  Ring ring_;
  std::vector<EdgeSet> rounds_;
  TailRule tail_;
};

// ---------------------------------------------------------------------------
// BernoulliSchedule

class BernoulliSchedule final : public WordRowSchedule {
 public:
  /// Each edge is present at each round independently with probability `p`:
  /// edge e at round t is Xoshiro256(derive_seed(seed, e, t)).next_bool(p).
  BernoulliSchedule(Ring ring, double p, std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double presence_probability() const { return p_; }

 private:
  Ring ring_;
  double p_;
  std::uint64_t threshold_;  // bernoulli_threshold(p)
  // derive_key(seed, e) per edge, padded with zeros to whole 64-edge words:
  // the per-round draw is then two mixes, in closed form (schedules.cpp).
  std::vector<std::uint64_t> keys_;
};

// ---------------------------------------------------------------------------
// PeriodicSchedule

class PeriodicSchedule final : public WordRowSchedule {
 public:
  struct EdgePattern {
    std::uint32_t period = 1;  // > 0
    std::uint32_t duty = 1;    // present iff (t + phase) % period < duty
    std::uint32_t phase = 0;
  };

  PeriodicSchedule(Ring ring, std::vector<EdgePattern> patterns);

  /// Uniform pattern for every edge, with a per-edge phase shift so the
  /// absent edge "rotates" around the ring (a simple transit-line model).
  static PeriodicSchedule rotating(Ring ring, std::uint32_t period,
                                   std::uint32_t duty);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    return {period_, Time{0}};
  }
  [[nodiscard]] std::string name() const override { return "periodic"; }

  /// Largest table (rows x words per row, 128 KiB) the constructor builds:
  /// pattern sets whose lcm period needs more words evaluate every edge per
  /// call.
  static constexpr std::size_t kMaxTabulatedWords = std::size_t{1} << 14;

 private:
  /// The presence rule, stated once: it fills the table, and serves pattern
  /// sets over the cap directly.
  [[nodiscard]] static bool present(const EdgePattern& p, Time t) {
    return (t + p.phase) % p.period < p.duty;
  }
  void compute_row(Time t, std::uint64_t* words) const;

  /// The tabulated row for round t, or nullptr when the table is over cap.
  [[nodiscard]] const std::uint64_t* row(Time t) const {
    if (rows_.empty()) return nullptr;
    return rows_.data() + static_cast<std::size_t>(t % period_) * row_words_;
  }

  Ring ring_;
  std::vector<EdgePattern> patterns_;
  Time period_ = 1;  // lcm of the pattern periods; 0 if it overflowed
  std::uint32_t row_words_ = 0;
  std::vector<std::uint64_t> rows_;  // period_ rows of row_words_ words
};

// ---------------------------------------------------------------------------
// TIntervalConnectedSchedule

class TIntervalConnectedSchedule final : public WordRowSchedule {
 public:
  /// At every round exactly one edge may be absent; which edge (or none) is
  /// redrawn uniformly every `interval` rounds from `seed`.  The resulting
  /// graph is connected at every instant (ring minus one edge is a chain)
  /// and every edge is recurrent with probability 1.
  TIntervalConnectedSchedule(Ring ring, Time interval, std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Ring ring_;
  Time interval_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// EventualMissingEdgeSchedule

class EventualMissingEdgeSchedule final : public WordRowSchedule {
 public:
  /// `missing_edge` follows `base` before `vanish_time` and is absent forever
  /// afterwards; all other edges follow `base`.  If `base` is
  /// connected-over-time then so is the result (a ring minus one edge is a
  /// connected chain).
  EventualMissingEdgeSchedule(SchedulePtr base, EdgeId missing_edge,
                              Time vanish_time);

  [[nodiscard]] const Ring& ring() const override { return base_->ring(); }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // After the vanish the overlay is constant, so the base's periodicity
    // carries through once both tails are in effect.
    const ScheduleRecurrence base = base_->recurrence();
    return {base.period, std::max(base.start, vanish_time_)};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] EdgeId missing_edge() const { return missing_edge_; }
  [[nodiscard]] Time vanish_time() const { return vanish_time_; }

 private:
  SchedulePtr base_;
  EdgeId missing_edge_;
  Time vanish_time_;
};

// ---------------------------------------------------------------------------
// BoundedAbsenceSchedule

class BoundedAbsenceSchedule final : public WordRowSchedule {
 public:
  /// Each edge alternates presence runs and absence runs; absence runs are
  /// uniform in [1, max_absence], presence runs uniform in [1, max_presence].
  /// Guarantees every edge is recurrent (connected-over-time by construction).
  BoundedAbsenceSchedule(Ring ring, Time max_absence, Time max_presence,
                         std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

 private:
  void append_row() const;

  Ring ring_;
  Time max_absence_;
  Time max_presence_;
  std::uint64_t absence_threshold_;   // Xoshiro256::below_threshold(A)
  std::uint64_t presence_threshold_;  // ... of max_presence
  std::uint32_t row_words_;

  // Lazily extended history, one packed row per round from 0 (O(1) random
  // access at 1 bit per edge-round).  Runs alternate present/absent,
  // starting present; edge e draws its run lengths, in order, from its own
  // stream Xoshiro256(derive_seed(seed, e)), and run_end_[e] is the round
  // its current run ends (kTimeInfinity on the padding to whole words).
  // Not thread-safe (the whole library is single-threaded by design;
  // benches parallelise across processes).
  mutable std::vector<Xoshiro256> streams_;
  mutable std::vector<Time> run_end_;
  mutable std::vector<std::uint64_t> rows_;
};

// ---------------------------------------------------------------------------
// SurgerySchedule

/// A half-open-interval edge removal: edge `edge` absent during
/// [from, to] (inclusive bounds, as in the paper's (e, tau) notation).
struct Removal {
  EdgeId edge = kInvalidEdge;
  Time from = 0;
  Time to = 0;  // inclusive; use kTimeInfinity for "forever after `from`"
};

class SurgerySchedule final : public EdgeSchedule {
 public:
  /// The paper's G \ {(e_1, tau_1), ...} operator: `base` with each listed
  /// edge forced absent during its listed interval(s).
  SurgerySchedule(SchedulePtr base, std::vector<Removal> removals);

  [[nodiscard]] const Ring& ring() const override { return base_->ring(); }
  [[nodiscard]] EdgeSet edges_at(Time t) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // A finite removal stops mattering after `to`; an infinite one is a
    // constant overlay from `from` on.  Past the latest such boundary the
    // base's periodicity is undisturbed.
    ScheduleRecurrence rec = base_->recurrence();
    for (const Removal& removal : removals_) {
      rec.start = std::max(rec.start, removal.to == kTimeInfinity
                                          ? removal.from
                                          : removal.to + 1);
    }
    return rec;
  }
  [[nodiscard]] std::string name() const override { return "surgery"; }

  [[nodiscard]] const std::vector<Removal>& removals() const {
    return removals_;
  }

 private:
  SchedulePtr base_;
  std::vector<Removal> removals_;
};

}  // namespace pef
