// MarkovSchedule: per-edge two-state (up/down) Markov dynamics.
//
// A more realistic dynamics family than iid Bernoulli: each edge is an
// independent two-state Markov chain with failure probability `p_fail`
// (up -> down per round) and recovery probability `p_recover`
// (down -> up per round).  Expected up-run length is 1/p_fail and down-run
// length 1/p_recover, so the stationary availability is
// p_recover / (p_fail + p_recover).  With p_recover > 0 every edge is
// recurrent with probability 1: connected-over-time.
//
// Used by the stress battery and by the transit/patrol examples as the
// "links fail and get repaired" model.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dynamic_graph/schedule.hpp"

namespace pef {

class MarkovSchedule final : public WordRowSchedule {
 public:
  MarkovSchedule(Ring ring, double p_fail, double p_recover,
                 std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double stationary_availability() const {
    return p_recover_ / (p_fail_ + p_recover_);
  }

 private:
  void append_row() const;

  Ring ring_;
  double p_fail_;
  double p_recover_;
  std::uint64_t fail_threshold_;     // bernoulli_threshold(p_fail)
  std::uint64_t recover_threshold_;  // bernoulli_threshold(p_recover)
  std::uint32_t row_words_;

  // Lazily extended history, one packed row per round from 0 (O(1) random
  // access at 1 bit per edge-round; single-threaded, like the rest of the
  // library).  Every edge starts up, and each later row takes one draw
  // from each edge's own stream Xoshiro256(derive_seed(seed, e, 0x3a7c0f)).
  // The stream state words live in four planes and the newest row's bits
  // in a byte plane (up_), all padded to whole 64-edge words.
  mutable std::array<std::vector<std::uint64_t>, 4> streams_;
  mutable std::vector<std::uint8_t> up_;
  mutable std::vector<std::uint64_t> rows_;
};

}  // namespace pef
