#include "dynamic_graph/schedules.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/table.hpp"

namespace pef {

// ---------------------------------------------------------------------------
// RecordedSchedule

RecordedSchedule::RecordedSchedule(Ring ring, std::vector<EdgeSet> rounds,
                                   TailRule tail)
    : ring_(ring), rounds_(std::move(rounds)), tail_(tail) {
  for (const EdgeSet& s : rounds_) {
    PEF_CHECK(s.edge_count() == ring_.edge_count());
  }
  if (tail_ == TailRule::kRepeatLast || tail_ == TailRule::kCyclePrefix) {
    PEF_CHECK(!rounds_.empty());
  }
}

EdgeSet RecordedSchedule::edges_at(Time t) const {
  if (t < rounds_.size()) return rounds_[static_cast<std::size_t>(t)];
  switch (tail_) {
    case TailRule::kAllPresent:
      return EdgeSet::all(ring_.edge_count());
    case TailRule::kRepeatLast:
      return rounds_.back();
    case TailRule::kCyclePrefix:
      return rounds_[static_cast<std::size_t>(t % rounds_.size())];
  }
  return EdgeSet::all(ring_.edge_count());
}

// ---------------------------------------------------------------------------
// BernoulliSchedule

BernoulliSchedule::BernoulliSchedule(Ring ring, double p, std::uint64_t seed)
    : ring_(ring), p_(p), seed_(seed) {
  PEF_CHECK(p >= 0.0 && p <= 1.0);
}

EdgeSet BernoulliSchedule::edges_at(Time t) const {
  EdgeSet s(ring_.edge_count());
  edges_into(t, s);
  return s;
}

void BernoulliSchedule::edges_into(Time t, EdgeSet& out) const {
  out.clear();
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    // One independent draw per (edge, round); deterministic in (seed, e, t).
    Xoshiro256 rng(derive_seed(seed_, e, t));
    if (rng.next_bool(p_)) out.insert(e);
  }
}

void BernoulliSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  for (std::uint32_t i = 0; i < count; ++i) words[i] = 0;
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    Xoshiro256 rng(derive_seed(seed_, e, t));
    if (rng.next_bool(p_)) words[e >> 6] |= 1ULL << (e & 63);
  }
}

std::string BernoulliSchedule::name() const {
  return "bernoulli(p=" + format_double(p_, 2) + ")";
}

// ---------------------------------------------------------------------------
// PeriodicSchedule

PeriodicSchedule::PeriodicSchedule(Ring ring,
                                   std::vector<EdgePattern> patterns)
    : ring_(ring),
      patterns_(std::move(patterns)),
      row_words_(edge_word_count(ring_.edge_count())) {
  PEF_CHECK(patterns_.size() == ring_.edge_count());
  for (const EdgePattern& p : patterns_) {
    PEF_CHECK(p.period > 0);
    PEF_CHECK(p.duty <= p.period);
    period_ = combine_recurrence_periods(period_, p.period);
  }
  // Every row depends on t only through t mod period_, so the whole
  // schedule is period_ rows; tabulate them unless that exceeds the cap
  // (the quotient form keeps period_ * row_words_ from overflowing).
  if (period_ != 0 && period_ <= kMaxTabulatedWords / row_words_) {
    rows_.resize(static_cast<std::size_t>(period_) * row_words_);
    for (Time t = 0; t < period_; ++t) {
      compute_row(t, rows_.data() + static_cast<std::size_t>(t) * row_words_);
    }
  }
}

PeriodicSchedule PeriodicSchedule::rotating(Ring ring, std::uint32_t period,
                                            std::uint32_t duty) {
  std::vector<EdgePattern> patterns(ring.edge_count());
  for (EdgeId e = 0; e < ring.edge_count(); ++e) {
    patterns[e] = EdgePattern{period, duty, e % period};
  }
  return PeriodicSchedule(ring, std::move(patterns));
}

void PeriodicSchedule::compute_row(Time t, std::uint64_t* words) const {
  for (std::uint32_t i = 0; i < row_words_; ++i) words[i] = 0;
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (present(patterns_[e], t)) words[e >> 6] |= 1ULL << (e & 63);
  }
}

EdgeSet PeriodicSchedule::edges_at(Time t) const {
  EdgeSet s(ring_.edge_count());
  edges_into(t, s);
  return s;
}

void PeriodicSchedule::edges_into(Time t, EdgeSet& out) const {
  if (const std::uint64_t* words = row(t)) {
    out.assign_words(words);
    return;
  }
  out.clear();
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (present(patterns_[e], t)) out.insert(e);
  }
}

void PeriodicSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  if (const std::uint64_t* src = row(t)) {
    std::copy_n(src, row_words_, words);
    return;
  }
  compute_row(t, words);
}

// ---------------------------------------------------------------------------
// TIntervalConnectedSchedule

TIntervalConnectedSchedule::TIntervalConnectedSchedule(Ring ring,
                                                       Time interval,
                                                       std::uint64_t seed)
    : ring_(ring), interval_(interval), seed_(seed) {
  PEF_CHECK(interval > 0);
}

EdgeSet TIntervalConnectedSchedule::edges_at(Time t) const {
  EdgeSet s(ring_.edge_count());
  edges_into(t, s);
  return s;
}

void TIntervalConnectedSchedule::edges_into(Time t, EdgeSet& out) const {
  const Time epoch = t / interval_;
  Xoshiro256 rng(derive_seed(seed_, epoch));
  // Draw in [0, n]: value n means "no edge missing this epoch".
  const std::uint64_t pick = rng.next_below(ring_.edge_count() + 1);
  out.fill();
  if (pick < ring_.edge_count()) out.erase(static_cast<EdgeId>(pick));
}

void TIntervalConnectedSchedule::edges_into_words(Time t,
                                                  std::uint64_t* words) const {
  const Time epoch = t / interval_;
  Xoshiro256 rng(derive_seed(seed_, epoch));
  const std::uint64_t pick = rng.next_below(ring_.edge_count() + 1);
  fill_edge_words(words, ring_.edge_count());
  if (pick < ring_.edge_count()) words[pick >> 6] &= ~(1ULL << (pick & 63));
}

std::string TIntervalConnectedSchedule::name() const {
  return "t-interval(T=" + std::to_string(interval_) + ")";
}

// ---------------------------------------------------------------------------
// EventualMissingEdgeSchedule

EventualMissingEdgeSchedule::EventualMissingEdgeSchedule(SchedulePtr base,
                                                         EdgeId missing_edge,
                                                         Time vanish_time)
    : base_(std::move(base)),
      missing_edge_(missing_edge),
      vanish_time_(vanish_time) {
  PEF_CHECK(base_ != nullptr);
  PEF_CHECK(base_->ring().is_valid_edge(missing_edge_));
}

EdgeSet EventualMissingEdgeSchedule::edges_at(Time t) const {
  EdgeSet s = base_->edges_at(t);
  if (t >= vanish_time_) s.erase(missing_edge_);
  return s;
}

void EventualMissingEdgeSchedule::edges_into(Time t, EdgeSet& out) const {
  base_->edges_into(t, out);
  if (t >= vanish_time_) out.erase(missing_edge_);
}

void EventualMissingEdgeSchedule::edges_into_words(
    Time t, std::uint64_t* words) const {
  base_->edges_into_words(t, words);
  if (t >= vanish_time_) {
    words[missing_edge_ >> 6] &= ~(1ULL << (missing_edge_ & 63));
  }
}

std::string EventualMissingEdgeSchedule::name() const {
  return "eventual-missing(e=" + std::to_string(missing_edge_) +
         ",t=" + std::to_string(vanish_time_) + ")+" + base_->name();
}

// ---------------------------------------------------------------------------
// BoundedAbsenceSchedule

BoundedAbsenceSchedule::BoundedAbsenceSchedule(Ring ring, Time max_absence,
                                               Time max_presence,
                                               std::uint64_t seed)
    : ring_(ring),
      max_absence_(max_absence),
      max_presence_(max_presence),
      seed_(seed),
      runs_(ring.edge_count()) {
  PEF_CHECK(max_absence >= 1);
  PEF_CHECK(max_presence >= 1);
}

bool BoundedAbsenceSchedule::edge_present(EdgeId e, Time t) const {
  // Run-length decoding with a lazily extended per-edge boundary cache:
  // runs alternate present/absent starting with present, lengths drawn from
  // the edge's own stream.  Amortised O(1) for the simulator's monotone
  // queries, O(log R) for random access.
  EdgeRuns& runs = runs_[e];
  if (!runs.initialised) {
    runs.rng = Xoshiro256(derive_seed(seed_, e));
    runs.boundaries.push_back(1 + runs.rng.next_below(max_presence_));
    runs.initialised = true;
  }
  while (runs.boundaries.back() <= t) {
    // Run i covers [boundaries[i-1], boundaries[i]); even i = present run.
    const bool next_run_absent = runs.boundaries.size() % 2 == 1;
    const Time span = next_run_absent
                          ? 1 + runs.rng.next_below(max_absence_)
                          : 1 + runs.rng.next_below(max_presence_);
    runs.boundaries.push_back(runs.boundaries.back() + span);
  }
  const auto it = std::upper_bound(runs.boundaries.begin(),
                                   runs.boundaries.end(), t);
  const auto run_index =
      static_cast<std::size_t>(it - runs.boundaries.begin());
  return run_index % 2 == 0;  // even-indexed runs are "present" runs
}

EdgeSet BoundedAbsenceSchedule::edges_at(Time t) const {
  EdgeSet s(ring_.edge_count());
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (edge_present(e, t)) s.insert(e);
  }
  return s;
}

void BoundedAbsenceSchedule::edges_into(Time t, EdgeSet& out) const {
  out.clear();
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (edge_present(e, t)) out.insert(e);
  }
}

void BoundedAbsenceSchedule::edges_into_words(Time t,
                                              std::uint64_t* words) const {
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  for (std::uint32_t i = 0; i < count; ++i) words[i] = 0;
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (edge_present(e, t)) words[e >> 6] |= 1ULL << (e & 63);
  }
}

std::string BoundedAbsenceSchedule::name() const {
  return "bounded-absence(A=" + std::to_string(max_absence_) + ")";
}

// ---------------------------------------------------------------------------
// SurgerySchedule

SurgerySchedule::SurgerySchedule(SchedulePtr base,
                                 std::vector<Removal> removals)
    : base_(std::move(base)), removals_(std::move(removals)) {
  PEF_CHECK(base_ != nullptr);
  for (const Removal& r : removals_) {
    PEF_CHECK(base_->ring().is_valid_edge(r.edge));
    PEF_CHECK(r.from <= r.to);
  }
}

EdgeSet SurgerySchedule::edges_at(Time t) const {
  EdgeSet s = base_->edges_at(t);
  for (const Removal& r : removals_) {
    if (t >= r.from && t <= r.to) s.erase(r.edge);
  }
  return s;
}

}  // namespace pef
