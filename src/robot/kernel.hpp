// The algorithm-kernel API.
//
// Every registry algorithm is one kernel: an enum-dispatched compute
// function over POD per-robot state (the cases of kernel_compute in
// algorithms/kernels.hpp).  It is the only Compute path there is: the
// production engines (Engine, BatchEngine) lift its dispatch out of their
// round loops, and the reference simulators call it once per robot.  A
// kernel is identified by a KernelSpec — the KernelId plus the few scalar
// parameters (seed, period) a family needs — and its whole per-robot memory
// is one fixed-size KernelState, so an engine stores all robot memories in
// a single contiguous vector: no pointer chase, no virtual call, per round.
//
// Hand-written truth tables taken from the paper's rules pin every kernel
// (tests/kernels_test.cpp); the differential tests pin the engines' round
// machinery to the reference simulators (tests/unified_engine_test.cpp).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace pef {

/// One value per registry algorithm (names and display names listed in
/// algorithms/registry.cpp).
enum class KernelId : std::uint8_t {
  kKeepDirection = 0,
  kBounce,
  kPef1,
  kPef2,
  kPef3Plus,
  kPef3PlusNoRule2,
  kPef3PlusNoRule3,
  kOscillating,
  kRandomWalk,
};

[[nodiscard]] constexpr const char* to_string(KernelId id) {
  switch (id) {
    case KernelId::kKeepDirection:
      return "keep-direction";
    case KernelId::kBounce:
      return "bounce";
    case KernelId::kPef1:
      return "pef1";
    case KernelId::kPef2:
      return "pef2";
    case KernelId::kPef3Plus:
      return "pef3+";
    case KernelId::kPef3PlusNoRule2:
      return "pef3+-no-rule2";
    case KernelId::kPef3PlusNoRule3:
      return "pef3+-no-rule3";
    case KernelId::kOscillating:
      return "oscillating";
    case KernelId::kRandomWalk:
      return "random-walk";
  }
  return "?";
}

/// A kernel plus the scalar parameters of its family.  Cheap to copy; the
/// engine keeps one per run and dispatches on `id` each Compute.
struct KernelSpec {
  KernelId id = KernelId::kKeepDirection;
  /// Master seed for randomized kernels (random-walk); init_kernel_state
  /// derives each robot's stream from it.
  std::uint64_t seed = 0;
  /// Turn period for oscillating.
  std::uint64_t period = 0;
};

/// The per-robot kernel memory: one fixed-size, trivially-copyable struct
/// covering every registry kernel (each uses the fields it needs).
///
/// The FIELD NAMES are the contract, not the struct: kernel_compute /
/// init_kernel_state are generic over any accessor exposing `rng`,
/// `counter` and `has_moved`.  Engine stores whole KernelStates in one
/// vector; BatchEngine stores each field as its own replica-strided plane
/// and passes a reference proxy, so a batched round touches only the bytes
/// the kernel actually uses (and the hot pef3+ flag stays contiguous for
/// the vectorizer).  Add new per-robot memory as a new field here plus a
/// plane + proxy entry in BatchEngine.
struct KernelState {
  Xoshiro256 rng{0};             // random-walk
  std::uint64_t counter = 0;     // oscillating: rounds since last turn
  std::uint8_t has_moved = 0;    // pef3+ family: HasMovedPreviousStep

  friend bool operator==(const KernelState&, const KernelState&) = default;
};

}  // namespace pef
