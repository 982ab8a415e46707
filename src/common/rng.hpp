// Deterministic seeded randomness.
//
// Every stochastic component (Bernoulli edge schedules, random-walk baseline,
// random placements) draws from an explicitly seeded generator so that every
// experiment row in EXPERIMENTS.md is exactly reproducible.  We provide
// SplitMix64 (for seed derivation) and xoshiro256** (for streams), both
// public-domain algorithms by Blackman & Vigna.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace pef {

/// SplitMix64's state increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64's output mix — the one definition of the mixing that
/// SplitMix64, derive_seed, Xoshiro256's seeding and the closed-form
/// stream draws below all share.
[[nodiscard]] constexpr std::uint64_t splitmix_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[nodiscard]] constexpr std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256**'s output scrambler: a draw is a function of state word 1.
[[nodiscard]] constexpr std::uint64_t xoshiro_scramble(std::uint64_t s1) {
  return rotl64(s1 * 5, 7) * 9;
}

/// The first output of Xoshiro256(seed), with no state set-up: it reads
/// only state word 1, which is SplitMix64(seed)'s second output.
[[nodiscard]] constexpr std::uint64_t xoshiro_first_draw(std::uint64_t seed) {
  return xoshiro_scramble(splitmix_mix(seed + 2 * kSplitMixGamma));
}

/// The integer form of Xoshiro256::next_bool(p): for a draw x,
/// next_double() < p holds iff (x >> 11) < bernoulli_threshold(p), because
/// p * 2^53 is exact for p in [0, 1] and (x >> 11) is an integer.
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// SplitMix64: used to expand a single 64-bit seed into independent
/// sub-seeds (one per edge, per robot, per trial...).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    return splitmix_mix(state_ += kSplitMixGamma);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse stream generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    return step(state_[0], state_[1], state_[2], state_[3]);
  }

  /// One draw from a state held in four separate words: next() is this
  /// step on the member state, and a schedule that advances one stream per
  /// edge keeps the words in four planes so a row is one plain loop.
  static constexpr std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1,
                                      std::uint64_t& s2, std::uint64_t& s3) {
    const std::uint64_t result = xoshiro_scramble(s1);
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl64(s3, 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool next_bool(double p) { return next_double() < p; }

  /// Uniform integer in [0, bound) using Lemire's rejection-free-ish method.
  std::uint64_t next_below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_below(bound, below_threshold(bound));
  }

  /// next_below(bound) for bound > 0 with its rejection threshold
  /// below_threshold(bound) computed once by a caller that reuses the bound.
  std::uint64_t next_below(std::uint64_t bound, std::uint64_t threshold) {
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// 2^64 mod bound (bound > 0): next_below rejects draws under it, which
  /// removes the modulo bias.
  static constexpr std::uint64_t below_threshold(std::uint64_t bound) {
    return (~bound + 1) % bound;
  }

  /// Raw generator state, exposed so deterministic-replay layers (cycle
  /// detection) can fingerprint and compare streams exactly.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  friend bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// derive_seed's first two stages: the key that every (b, c) stream of one
/// (master, a) pair starts from.  Stochastic schedules compute it once per
/// edge and finish each per-round seed with derive_seed_from_key.
[[nodiscard]] constexpr std::uint64_t derive_key(std::uint64_t master,
                                                 std::uint64_t a) {
  return splitmix_mix((splitmix_mix(master + kSplitMixGamma) ^
                       (a * kSplitMixGamma)) +
                      kSplitMixGamma);
}

/// derive_seed's last stages, from a derive_key key.
[[nodiscard]] constexpr std::uint64_t derive_seed_from_key(
    std::uint64_t key, std::uint64_t b, std::uint64_t c = 0) {
  return splitmix_mix((key ^ (b * 0xbf58476d1ce4e5b9ULL)) + kSplitMixGamma) ^
         (c * 0x94d049bb133111ebULL);
}

/// Derive a sub-seed for a named stream: deterministic mixing of a master
/// seed with up to three stream coordinates (e.g. trial, edge, robot).
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::uint64_t a,
                                                  std::uint64_t b = 0,
                                                  std::uint64_t c = 0) {
  return derive_seed_from_key(derive_key(master, a), b, c);
}

}  // namespace pef
