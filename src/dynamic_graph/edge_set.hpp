// Bit-set over ring edges: the set E_t of edges present at one round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pef {

/// Words per row for `edge_count` edges (the words() layout).
[[nodiscard]] constexpr std::uint32_t edge_word_count(
    std::uint32_t edge_count) {
  return (edge_count + 63) / 64;
}

/// The bits of a row's last word that hold edges (edge_count >= 1); the
/// bits above them stay clear in every row.
[[nodiscard]] constexpr std::uint64_t edge_tail_mask(std::uint32_t edge_count) {
  const std::uint32_t tail_bits =
      edge_count - (edge_word_count(edge_count) - 1) * 64;
  return tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
}

class EdgeSet {
 public:
  EdgeSet() = default;
  explicit EdgeSet(std::uint32_t edge_count)
      : edge_count_(edge_count), words_(edge_word_count(edge_count), 0) {}

  /// Full set (all edges present).
  [[nodiscard]] static EdgeSet all(std::uint32_t edge_count) {
    EdgeSet s(edge_count);
    for (std::uint32_t e = 0; e < edge_count; ++e) s.insert(e);
    return s;
  }

  /// Empty set (no edges present).
  [[nodiscard]] static EdgeSet none(std::uint32_t edge_count) {
    return EdgeSet(edge_count);
  }

  [[nodiscard]] std::uint32_t edge_count() const { return edge_count_; }

  [[nodiscard]] bool contains(EdgeId e) const {
    PEF_CHECK(e < edge_count_);
    return (words_[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// `contains` without the bounds check, for engine hot loops that already
  /// guarantee `e < edge_count()` structurally (Ring::adjacent_edge can only
  /// produce valid ids).
  [[nodiscard]] bool contains_unchecked(EdgeId e) const {
    return (words_[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// Raw bit words, one bit per edge, little-endian within each word.
  /// BatchEngine caches these pointers so its replica-stride inner loops
  /// test edge presence without re-resolving the vector each iteration;
  /// valid until the set is resized or assigned a differently-sized set.
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }

  /// Writable words(), for row fillers that write a whole row in place and
  /// keep the bits past edge_count clear (EdgeSchedule::edges_into_words).
  [[nodiscard]] std::uint64_t* mutable_words() { return words_.data(); }

  /// Overwrite this set's bits from a raw word row in the words() layout
  /// ((edge_count + 63) / 64 words; bits past edge_count are masked off).
  /// Cold-path bridge from engine word planes back to EdgeSet (e.g. trace
  /// reconstruction); no reallocation.
  void assign_words(const std::uint64_t* words) {
    if (words_.empty()) return;
    const std::size_t last = words_.size() - 1;
    for (std::size_t i = 0; i < last; ++i) words_[i] = words[i];
    words_[last] = words[last] & edge_tail_mask(edge_count_);
  }

  void insert(EdgeId e) {
    PEF_CHECK(e < edge_count_);
    words_[e >> 6] |= (1ULL << (e & 63));
  }

  void erase(EdgeId e) {
    PEF_CHECK(e < edge_count_);
    words_[e >> 6] &= ~(1ULL << (e & 63));
  }

  void set(EdgeId e, bool present) { present ? insert(e) : erase(e); }

  /// Make every edge present / absent in place (no reallocation) — lets
  /// schedules refill a caller-owned scratch set instead of returning a
  /// fresh heap allocation per round.
  void fill() {
    if (words_.empty()) return;
    const std::size_t last = words_.size() - 1;
    for (std::size_t i = 0; i < last; ++i) words_[i] = ~0ULL;
    words_[last] = edge_tail_mask(edge_count_);
  }
  void clear() {
    for (std::uint64_t& w : words_) w = 0;
  }

  [[nodiscard]] std::uint32_t size() const {
    std::uint32_t total = 0;
    for (std::uint64_t w : words_) {
      total += static_cast<std::uint32_t>(__builtin_popcountll(w));
    }
    return total;
  }

  /// Early-exits on the first word that disagrees instead of popcounting
  /// the whole set.
  [[nodiscard]] bool empty() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool full() const {
    if (edge_count_ == 0) return true;
    const std::size_t last = words_.size() - 1;
    for (std::size_t i = 0; i < last; ++i) {
      if (words_[i] != ~0ULL) return false;
    }
    return words_[last] == edge_tail_mask(edge_count_);
  }

  /// Edges present in this set, ascending.
  [[nodiscard]] std::vector<EdgeId> to_vector() const {
    std::vector<EdgeId> out;
    out.reserve(size());
    for (EdgeId e = 0; e < edge_count_; ++e) {
      if (contains(e)) out.push_back(e);
    }
    return out;
  }

  /// Set union / intersection / difference (operands must be same size).
  EdgeSet& operator|=(const EdgeSet& o);
  EdgeSet& operator&=(const EdgeSet& o);
  EdgeSet& operator-=(const EdgeSet& o);

  friend EdgeSet operator|(EdgeSet a, const EdgeSet& b) { return a |= b; }
  friend EdgeSet operator&(EdgeSet a, const EdgeSet& b) { return a &= b; }
  friend EdgeSet operator-(EdgeSet a, const EdgeSet& b) { return a -= b; }

  friend bool operator==(const EdgeSet&, const EdgeSet&) = default;

  /// "{0, 2, 5}" — for traces and test failure messages.
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint32_t edge_count_ = 0;
  std::vector<std::uint64_t> words_;
};

// ---------------------------------------------------------------------------
// Raw word-row helpers — the EdgeSet bit layout applied to rows of an
// engine-owned contiguous plane (BatchEngine keeps one edge-word row per
// replica; schedules fill rows in place via EdgeSchedule::edges_into_words).

/// Pack 64 per-edge bytes, each 0 or 1, into one row word (byte j -> bit
/// j): row fillers compute their bits in a plain byte loop GCC vectorises,
/// then pack eight bytes per multiply.
[[nodiscard]] inline std::uint64_t pack_edge_bytes(const std::uint8_t* bytes) {
  std::uint64_t word = 0;
  for (std::uint32_t i = 0; i < 64; i += 8) {
    std::uint64_t eight = 0;
    for (std::uint32_t b = 0; b < 8; ++b) {
      eight |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
    }
    // The multiplier's terms 2^(56 - 7b) carry byte b's bit to bit 56 + b.
    word |= ((eight * 0x0102040810204080ULL) >> 56) << i;
  }
  return word;
}

// Row fillers are compiled for the portable, AVX2 and x86-64-v4 (AVX-512)
// tiers, and the loader picks the widest the CPU has; every tier computes
// the same integers, so the tier never changes a row.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PEF_ROW_FILLER_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define PEF_ROW_FILLER_CLONES
#endif

/// Make every edge present in a raw word row (tail bits cleared).
inline void fill_edge_words(std::uint64_t* words, std::uint32_t edge_count) {
  const std::uint32_t count = edge_word_count(edge_count);
  if (count == 0) return;
  for (std::uint32_t i = 0; i + 1 < count; ++i) words[i] = ~0ULL;
  words[count - 1] = edge_tail_mask(edge_count);
}

/// True iff a raw word row holds the full edge set.
[[nodiscard]] inline bool edge_words_full(const std::uint64_t* words,
                                          std::uint32_t edge_count) {
  const std::uint32_t count = edge_word_count(edge_count);
  if (count == 0) return true;
  for (std::uint32_t i = 0; i + 1 < count; ++i) {
    if (words[i] != ~0ULL) return false;
  }
  return words[count - 1] == edge_tail_mask(edge_count);
}

}  // namespace pef
