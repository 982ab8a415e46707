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
    : ring_(ring),
      p_(p),
      threshold_(bernoulli_threshold(p)),
      keys_(std::size_t{64} * edge_word_count(ring.edge_count()), 0) {
  PEF_CHECK(p >= 0.0 && p <= 1.0);
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    keys_[e] = derive_key(seed, e);
  }
}

namespace {

/// Xoshiro256(s)'s first draw is xoshiro_first_draw(s) and next_bool(p) is
/// (draw >> 11) < threshold, so bit e of round t costs two mixes and no
/// stream set-up: branchless, one 64-edge word at a time.
PEF_ROW_FILLER_CLONES void fill_bernoulli_row(const std::uint64_t* keys,
                                              std::uint32_t count, Time t,
                                              std::uint64_t threshold,
                                              std::uint64_t* words) {
  for (std::uint32_t w = 0; w < count; ++w) {
    const std::uint64_t* key = keys + std::size_t{64} * w;
    std::uint8_t bits[64];
    for (std::uint32_t j = 0; j < 64; ++j) {
      const std::uint64_t draw =
          xoshiro_first_draw(derive_seed_from_key(key[j], t));
      bits[j] = (draw >> 11) < threshold;
    }
    words[w] = pack_edge_bytes(bits);
  }
}

/// Which of 64 edges' runs end at round t, as a row word.
PEF_ROW_FILLER_CLONES std::uint64_t run_ends_word(const Time* run_end,
                                                  Time t) {
  std::uint8_t ends[64];
  for (std::uint32_t j = 0; j < 64; ++j) ends[j] = run_end[j] == t;
  return pack_edge_bytes(ends);
}

}  // namespace

void BernoulliSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  fill_bernoulli_row(keys_.data(), count, t, threshold_, words);
  words[count - 1] &= edge_tail_mask(ring_.edge_count());
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
      row_words_(edge_word_count(ring.edge_count())),
      run_end_(std::size_t{64} * row_words_, kTimeInfinity) {
  PEF_CHECK(max_absence >= 1);
  PEF_CHECK(max_presence >= 1);
  absence_threshold_ = Xoshiro256::below_threshold(max_absence_);
  presence_threshold_ = Xoshiro256::below_threshold(max_presence_);
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    streams_.emplace_back(derive_seed(seed, e));
    run_end_[e] = 1 + streams_[e].next_below(max_presence_);
  }
}

void BoundedAbsenceSchedule::append_row() const {
  const std::size_t at = rows_.size();
  const Time t = at / row_words_;
  rows_.resize(at + row_words_);
  std::uint64_t* row = rows_.data() + at;
  if (t == 0) {
    fill_edge_words(row, ring_.edge_count());  // every edge opens present
    return;
  }
  const std::uint64_t* prev = row - row_words_;
  for (std::uint32_t w = 0; w < row_words_; ++w) {
    // The edges whose run ends at t flip; each draws its next run's length.
    std::uint64_t ends =
        run_ends_word(run_end_.data() + std::size_t{64} * w, t);
    row[w] = prev[w] ^ ends;
    for (; ends != 0; ends &= ends - 1) {
      const std::uint32_t j = static_cast<std::uint32_t>(__builtin_ctzll(ends));
      const EdgeId e = 64 * w + j;
      const bool present = (row[w] >> j) & 1;
      const Time bound = present ? max_presence_ : max_absence_;
      const std::uint64_t threshold =
          present ? presence_threshold_ : absence_threshold_;
      run_end_[e] += 1 + streams_[e].next_below(bound, threshold);
    }
  }
}

void BoundedAbsenceSchedule::edges_into_words(Time t,
                                              std::uint64_t* words) const {
  while (rows_.size() / row_words_ <= t) append_row();
  std::copy_n(rows_.data() + t * row_words_, row_words_, words);
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
