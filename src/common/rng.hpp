// Deterministic seeded randomness.
//
// Every stochastic component (Bernoulli edge schedules, random-walk baseline,
// random placements) draws from an explicitly seeded generator so that every
// experiment row in EXPERIMENTS.md is exactly reproducible.  We provide
// SplitMix64 (for seed derivation) and xoshiro256** (for streams), both
// public-domain algorithms by Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>

namespace pef {

/// SplitMix64: used to expand a single 64-bit seed into independent
/// sub-seeds (one per edge, per robot, per trial...).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
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
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool next_bool(double p) { return next_double() < p; }

  /// Uniform integer in [0, bound) using Lemire's rejection-free-ish method.
  std::uint64_t next_below(std::uint64_t bound);

  /// Raw generator state, exposed so deterministic-replay layers (cycle
  /// detection) can fingerprint and compare streams exactly.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  friend bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derive a sub-seed for a named stream: deterministic mixing of a master
/// seed with up to three stream coordinates (e.g. trial, edge, robot).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master, std::uint64_t a,
                                        std::uint64_t b = 0,
                                        std::uint64_t c = 0);

}  // namespace pef
