#include "dynamic_graph/markov_schedule.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/table.hpp"

namespace pef {

namespace {

/// One round of every chain: an up edge stays up unless next_bool(p_fail),
/// a down edge comes back iff next_bool(p_recover) — one draw either way,
/// branchless over the padded edge planes.
PEF_ROW_FILLER_CLONES void advance_chains(
    std::uint64_t* __restrict s0, std::uint64_t* __restrict s1,
    std::uint64_t* __restrict s2, std::uint64_t* __restrict s3,
    std::uint8_t* __restrict up, std::size_t edges,
    std::uint64_t fail_threshold, std::uint64_t recover_threshold) {
  for (std::size_t e = 0; e < edges; ++e) {
    const std::uint64_t draw =
        Xoshiro256::step(s0[e], s1[e], s2[e], s3[e]) >> 11;
    const std::uint8_t was_up = up[e];
    up[e] = (was_up & (draw >= fail_threshold)) |
            (!was_up & (draw < recover_threshold));
  }
}

}  // namespace

MarkovSchedule::MarkovSchedule(Ring ring, double p_fail, double p_recover,
                               std::uint64_t seed)
    : ring_(ring),
      p_fail_(p_fail),
      p_recover_(p_recover),
      fail_threshold_(bernoulli_threshold(p_fail)),
      recover_threshold_(bernoulli_threshold(p_recover)),
      row_words_(edge_word_count(ring.edge_count())),
      up_(std::size_t{64} * row_words_, 1) {  // edges start up
  PEF_CHECK(p_fail >= 0.0 && p_fail <= 1.0);
  PEF_CHECK(p_recover > 0.0 && p_recover <= 1.0);  // recurrence needs > 0
  for (auto& plane : streams_) plane.assign(up_.size(), 0);
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    const Xoshiro256 stream(derive_seed(seed, e, 0x3a7c0f));
    for (std::size_t i = 0; i < 4; ++i) streams_[i][e] = stream.state()[i];
  }
}

void MarkovSchedule::append_row() const {
  const std::size_t at = rows_.size();
  if (at != 0) {
    advance_chains(streams_[0].data(), streams_[1].data(), streams_[2].data(),
                   streams_[3].data(), up_.data(), up_.size(),
                   fail_threshold_, recover_threshold_);
  }
  rows_.resize(at + row_words_);
  for (std::uint32_t w = 0; w < row_words_; ++w) {
    rows_[at + w] = pack_edge_bytes(up_.data() + std::size_t{64} * w);
  }
  rows_.back() &= edge_tail_mask(ring_.edge_count());
}

void MarkovSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  while (rows_.size() / row_words_ <= t) append_row();
  std::copy_n(rows_.data() + t * row_words_, row_words_, words);
}

std::string MarkovSchedule::name() const {
  return "markov(fail=" + format_double(p_fail_, 2) +
         ",recover=" + format_double(p_recover_, 2) + ")";
}

}  // namespace pef
