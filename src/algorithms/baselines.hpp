// Baseline (non-paper) algorithms.
//
// The paper proves its bounds against *all* deterministic algorithms; our
// benches therefore pit the lower-bound adversaries against a diverse suite
// of strategies, and the upper-bound benches use the same suite as
// comparators that fail where PEF succeeds:
//
//   KeepDirection   - Rule 1 alone: never turn.  Explores static and
//                     recurrent rings (absent a meeting) but is defeated by
//                     a single eventual missing edge.
//   BounceOnMissing - turn back whenever the pointed edge is absent and the
//                     other is present (a natural "wall bounce" heuristic).
//                     Livelocks between the two extremities of an eventual
//                     missing edge without ever crossing the far side.
//   RandomWalk      - flip a fair coin each round (randomized, hence outside
//                     the paper's deterministic model; included to show the
//                     bounds are about *deterministic* solvability).
//   Oscillating     - turn back every `period` rounds regardless of the
//                     environment; the canonical "patrol a segment" strategy.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "robot/algorithm.hpp"

namespace pef {

class KeepDirection final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "keep-direction"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<EmptyState>();
  }
  void compute(const View&, LocalDirection&, AlgorithmState&) const override {
  }
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kKeepDirection};
  }
};

class BounceOnMissing final : public Algorithm {
 public:
  [[nodiscard]] std::string name() const override { return "bounce"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<EmptyState>();
  }
  void compute(const View& view, LocalDirection& dir,
               AlgorithmState&) const override {
    if (!view.exists_edge_ahead && view.exists_edge_behind) {
      dir = opposite(dir);
    }
  }
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kBounce};
  }
};

class RandomWalkState final : public AlgorithmState {
 public:
  explicit RandomWalkState(std::uint64_t seed) : rng(seed), seed_(seed) {}

  Xoshiro256 rng;

  [[nodiscard]] std::unique_ptr<AlgorithmState> clone() const override {
    // Clones restart the stream; clone() is only used for trace snapshots,
    // never to continue a simulation.
    return std::make_unique<RandomWalkState>(seed_);
  }
  [[nodiscard]] std::string to_string() const override { return "{rng}"; }

 private:
  std::uint64_t seed_;
};

class RandomWalk final : public Algorithm {
 public:
  explicit RandomWalk(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "random-walk"; }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId robot_index) const override {
    return std::make_unique<RandomWalkState>(
        derive_seed(seed_, robot_index, 0x72777761));
  }
  void compute(const View&, LocalDirection& dir,
               AlgorithmState& state) const override {
    auto& s = static_cast<RandomWalkState&>(state);
    if (s.rng.next_bool(0.5)) dir = opposite(dir);
  }
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kRandomWalk, seed_};
  }

 private:
  std::uint64_t seed_;
};

class OscillatingState final : public AlgorithmState {
 public:
  std::uint64_t rounds_since_turn = 0;

  [[nodiscard]] std::unique_ptr<AlgorithmState> clone() const override {
    auto copy = std::make_unique<OscillatingState>();
    copy->rounds_since_turn = rounds_since_turn;
    return copy;
  }
  [[nodiscard]] std::string to_string() const override {
    return "{t=" + std::to_string(rounds_since_turn) + "}";
  }
};

class Oscillating final : public Algorithm {
 public:
  explicit Oscillating(std::uint64_t period) : period_(period) {}

  [[nodiscard]] std::string name() const override {
    return "oscillating(" + std::to_string(period_) + ")";
  }
  [[nodiscard]] std::unique_ptr<AlgorithmState> make_state(
      RobotId) const override {
    return std::make_unique<OscillatingState>();
  }
  void compute(const View&, LocalDirection& dir,
               AlgorithmState& state) const override {
    auto& s = static_cast<OscillatingState&>(state);
    if (++s.rounds_since_turn >= period_) {
      dir = opposite(dir);
      s.rounds_since_turn = 0;
    }
  }
  [[nodiscard]] KernelSpec kernel() const override {
    return KernelSpec{KernelId::kOscillating, 0, period_};
  }

 private:
  std::uint64_t period_;
};

}  // namespace pef
