#include "engine/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#endif

#include "scheduler/async.hpp"
#include "scheduler/ssync.hpp"

#include "algorithms/kernels.hpp"
#include "common/check.hpp"

namespace pef {
namespace {

// ---------------------------------------------------------------------------
// ISA dispatch
//
// The hot kernels (row-compare multiplicity, the fused FSYNC pass) are
// compiled three times — portable, AVX2, AVX-512 — from one always_inline
// body, and a wrapper picks the widest tier the CPU supports once per
// process (__builtin_cpu_supports).  Explicit wrappers instead of
// target_clones because (a) target_clones does not apply to the templated
// pass, and (b) the PEF_BATCH_ISA escape hatch must reach every kernel:
// PEF_BATCH_ISA=portable|avx2|avx512 CLAMPS the tier (never raises it past
// what the CPU has), which is how the differential tests pin every tier to
// identical results and how CI exercises the dispatch on runners whose ISA
// is unknown.  All tiers compute the same integer arithmetic, so the tier
// choice can never change results — only how fast they appear.

enum class BatchIsa : std::uint8_t { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PEF_BATCH_HAS_ISA_WRAPPERS 1
// The full Skylake-and-later server subset the kernels want: f/bw/dq/vl
// covers 512-bit u32 compares, byte-plane blends and 256/128-bit tails.
#define PEF_BATCH_AVX512_TARGET "avx512f,avx512bw,avx512dq,avx512vl"
#endif

[[nodiscard]] BatchIsa detect_batch_isa() {
#ifdef PEF_BATCH_HAS_ISA_WRAPPERS
  BatchIsa best = BatchIsa::kPortable;
  if (__builtin_cpu_supports("avx2")) best = BatchIsa::kAvx2;
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    best = BatchIsa::kAvx512;
  }
  if (const char* env = std::getenv("PEF_BATCH_ISA")) {
    BatchIsa cap = best;
    if (std::strcmp(env, "portable") == 0) cap = BatchIsa::kPortable;
    if (std::strcmp(env, "avx2") == 0) cap = BatchIsa::kAvx2;
    if (std::strcmp(env, "avx512") == 0) cap = BatchIsa::kAvx512;
    if (cap < best) best = cap;  // clamp only — never exceed the hardware
  }
  return best;
#else
  return BatchIsa::kPortable;
#endif
}

[[nodiscard]] BatchIsa active_isa() {
  static const BatchIsa isa = detect_batch_isa();
  return isa;
}

/// The batched form of KernelState: references into the per-field state
/// planes, structurally compatible with kernel_compute / init_kernel_state.
struct KernelStateRef {
  Xoshiro256& rng;
  std::uint64_t& counter;
  std::uint8_t& has_moved;
};

/// Bind robot state at plane offset `at`.  Only random-walk batches carry a
/// real rng plane; every other kernel binds (and never touches) the dummy
/// slot 0.
template <KernelId Id>
[[gnu::always_inline]] inline KernelStateRef kernel_state_at(
    Xoshiro256* rng, std::uint64_t* counter, std::uint8_t* has_moved,
    std::size_t at) {
  if constexpr (Id == KernelId::kRandomWalk) {
    return {rng[at], counter[at], has_moved[at]};
  } else {
    return {rng[0], counter[at], has_moved[at]};
  }
}

// The multiplicity row-compare kernel: for every robot i and live lane l,
// count how many robot rows agree with row i at column l (including i
// itself); multiplicity is count > 1.  This is the single densest loop
// nest of a batch round, so it is shaped for registers: the lane axis is
// processed in compile-time-width chunks (W lanes at a time), which fully
// unrolls the per-chunk loops and promotes both the pivot row and the
// accumulators to vector registers — the j loop then touches memory once
// per row.
template <std::uint32_t W>
[[gnu::always_inline]] inline void mult_chunk(const NodeId* __restrict node,
                                              std::uint8_t* __restrict mult,
                                              std::uint8_t* __restrict tower,
                                              std::uint32_t k,
                                              std::uint32_t stride,
                                              std::uint32_t off) {
  // Two pivot rows per sweep: the j loop's row loads are the kernel's only
  // memory traffic, so sharing each row_j between two accumulating pivots
  // halves it.
  std::uint32_t i = 0;
  for (; i + 2 <= k; i += 2) {
    const NodeId* const __restrict row_a = node + std::size_t{i} * stride + off;
    const NodeId* const __restrict row_b =
        node + std::size_t{i + 1} * stride + off;
    NodeId pivot_a[W];
    NodeId pivot_b[W];
    std::uint32_t cnt_a[W];
    std::uint32_t cnt_b[W];
    for (std::uint32_t l = 0; l < W; ++l) {
      pivot_a[l] = row_a[l];
      pivot_b[l] = row_b[l];
      cnt_a[l] = 0;
      cnt_b[l] = 0;
    }
    for (std::uint32_t j = 0; j < k; ++j) {
      const NodeId* const __restrict row_j =
          node + std::size_t{j} * stride + off;
      for (std::uint32_t l = 0; l < W; ++l) {
        const NodeId v = row_j[l];
        cnt_a[l] += pivot_a[l] == v ? 1 : 0;
        cnt_b[l] += pivot_b[l] == v ? 1 : 0;
      }
    }
    std::uint8_t* const __restrict mult_a = mult + std::size_t{i} * stride + off;
    std::uint8_t* const __restrict mult_b =
        mult + std::size_t{i + 1} * stride + off;
    for (std::uint32_t l = 0; l < W; ++l) {
      const std::uint8_t ma = cnt_a[l] > 1 ? 1 : 0;
      const std::uint8_t mb = cnt_b[l] > 1 ? 1 : 0;
      mult_a[l] = ma;
      mult_b[l] = mb;
      tower[off + l] |= ma | mb;
    }
  }
  for (; i < k; ++i) {
    const NodeId* const __restrict row_i = node + std::size_t{i} * stride + off;
    NodeId pivot[W];
    std::uint32_t cnt[W];
    for (std::uint32_t l = 0; l < W; ++l) {
      pivot[l] = row_i[l];
      cnt[l] = 0;
    }
    for (std::uint32_t j = 0; j < k; ++j) {
      const NodeId* const __restrict row_j =
          node + std::size_t{j} * stride + off;
      for (std::uint32_t l = 0; l < W; ++l) {
        cnt[l] += pivot[l] == row_j[l] ? 1 : 0;
      }
    }
    std::uint8_t* const __restrict mult_i = mult + std::size_t{i} * stride + off;
    for (std::uint32_t l = 0; l < W; ++l) {
      const std::uint8_t m = cnt[l] > 1 ? 1 : 0;
      mult_i[l] = m;
      tower[off + l] |= m;
    }
  }
}

// The driver walks one LANE RANGE [off0, off0+live): callers pass
// plane-base pointers plus the range, so one multiplicity boundary can be
// sliced across worker threads (tower[] here is pre-rebased to the range).
// WMax is the leading chunk width: 16 u32 (two ymm per row) for AVX2 and
// the portable tier, 32 (two zmm) for AVX-512 — one zmm per row leaves the
// compare ports half idle and measured SLOWER than the AVX2 tier.
template <std::uint32_t WMax>
[[gnu::always_inline]] inline void compute_multiplicity_rows_body(
    const NodeId* __restrict node, std::uint8_t* __restrict mult,
    std::uint8_t* __restrict tower, std::uint32_t k, std::uint32_t stride,
    std::uint32_t off0, std::uint32_t live) {
  for (std::uint32_t l = 0; l < live; ++l) tower[l] = 0;
  tower -= off0;  // mult_chunk indexes tower by absolute offset
  std::uint32_t off = off0;
  const std::uint32_t end = off0 + live;
  if constexpr (WMax >= 32) {
    for (; off + 32 <= end; off += 32) {
      mult_chunk<32>(node, mult, tower, k, stride, off);
    }
  }
  for (; off + 16 <= end; off += 16) {
    mult_chunk<16>(node, mult, tower, k, stride, off);
  }
  for (; off + 8 <= end; off += 8) {
    mult_chunk<8>(node, mult, tower, k, stride, off);
  }
  for (; off + 4 <= end; off += 4) {
    mult_chunk<4>(node, mult, tower, k, stride, off);
  }
  for (; off < end; ++off) {
    mult_chunk<1>(node, mult, tower, k, stride, off);
  }
}

#ifdef PEF_BATCH_HAS_ISA_WRAPPERS
__attribute__((target("avx2"))) void compute_multiplicity_rows_avx2(
    const NodeId* __restrict node, std::uint8_t* __restrict mult,
    std::uint8_t* __restrict tower, std::uint32_t k, std::uint32_t stride,
    std::uint32_t off0, std::uint32_t live) {
  compute_multiplicity_rows_body<16>(node, mult, tower, k, stride, off0,
                                     live);
}

// AVX-512 pairwise kernel for k <= 16.  One chunk covers 16 lanes (one zmm
// per robot row), and with k <= 16 ALL robot rows fit in zmm registers at
// once — the pair loop then runs i<j compares with zero memory traffic.
// Each vpcmpeqd yields a 16-bit lane mask which is OR-accumulated for BOTH
// rows of the pair in scalar GPRs; this (a) halves the compares versus the
// count-equal formulation (multiplicity is a bit, not a count), and (b)
// leaves nothing for the compiler to spill — the autovectorized W=32
// counting body loses ~4x to stack traffic on exactly this loop.
template <std::uint32_t KC>
__attribute__((target(PEF_BATCH_AVX512_TARGET))) [[gnu::always_inline]] inline
void mult_pairs_chunk_avx512(const NodeId* __restrict node,
                             std::uint8_t* __restrict mult,
                             std::uint8_t* __restrict tower,
                             std::uint32_t stride, std::uint32_t off,
                             __mmask16 lanes) {
  // Masked-out tail lanes load as zero in every row, so they compare equal
  // everywhere — harmless, because every store below is masked by `lanes`.
  __m512i rows[KC];
  for (std::uint32_t i = 0; i < KC; ++i) {
    rows[i] =
        _mm512_maskz_loadu_epi32(lanes, node + std::size_t{i} * stride + off);
  }
  std::uint32_t acc[KC] = {};
  for (std::uint32_t i = 0; i + 1 < KC; ++i) {
    for (std::uint32_t j = i + 1; j < KC; ++j) {
      const std::uint32_t eq =
          _cvtmask16_u32(_mm512_cmpeq_epi32_mask(rows[i], rows[j]));
      acc[i] |= eq;
      acc[j] |= eq;
    }
  }
  const __m128i ones = _mm_set1_epi8(1);
  std::uint32_t tw = 0;
  for (std::uint32_t i = 0; i < KC; ++i) {
    tw |= acc[i];
    _mm_mask_storeu_epi8(
        mult + std::size_t{i} * stride + off, lanes,
        _mm_maskz_mov_epi8(static_cast<__mmask16>(acc[i]), ones));
  }
  _mm_mask_storeu_epi8(tower + off, lanes,
                       _mm_maskz_mov_epi8(static_cast<__mmask16>(tw), ones));
}

template <std::uint32_t KC>
__attribute__((target(PEF_BATCH_AVX512_TARGET))) void mult_pairs_avx512(
    const NodeId* __restrict node, std::uint8_t* __restrict mult,
    std::uint8_t* __restrict tower, std::uint32_t stride, std::uint32_t off0,
    std::uint32_t live) {
  tower -= off0;  // chunks index tower by absolute offset, like mult_chunk
  std::uint32_t off = off0;
  const std::uint32_t end = off0 + live;
  for (; off + 16 <= end; off += 16) {
    mult_pairs_chunk_avx512<KC>(node, mult, tower, stride, off, 0xffff);
  }
  if (off < end) {
    const __mmask16 tail =
        static_cast<__mmask16>((1u << (end - off)) - 1u);
    mult_pairs_chunk_avx512<KC>(node, mult, tower, stride, off, tail);
  }
}

__attribute__((target(PEF_BATCH_AVX512_TARGET))) void
compute_multiplicity_rows_avx512(const NodeId* __restrict node,
                                 std::uint8_t* __restrict mult,
                                 std::uint8_t* __restrict tower,
                                 std::uint32_t k, std::uint32_t stride,
                                 std::uint32_t off0, std::uint32_t live) {
  switch (k) {
#define PEF_MULT_PAIRS_CASE(KC)                                  \
  case KC:                                                       \
    mult_pairs_avx512<KC>(node, mult, tower, stride, off0, live); \
    return;
    PEF_MULT_PAIRS_CASE(2)
    PEF_MULT_PAIRS_CASE(3)
    PEF_MULT_PAIRS_CASE(4)
    PEF_MULT_PAIRS_CASE(5)
    PEF_MULT_PAIRS_CASE(6)
    PEF_MULT_PAIRS_CASE(7)
    PEF_MULT_PAIRS_CASE(8)
    PEF_MULT_PAIRS_CASE(9)
    PEF_MULT_PAIRS_CASE(10)
    PEF_MULT_PAIRS_CASE(11)
    PEF_MULT_PAIRS_CASE(12)
    PEF_MULT_PAIRS_CASE(13)
    PEF_MULT_PAIRS_CASE(14)
    PEF_MULT_PAIRS_CASE(15)
    PEF_MULT_PAIRS_CASE(16)
#undef PEF_MULT_PAIRS_CASE
    case 0:
    case 1: {
      // A lone robot can never stand on a tower.
      for (std::uint32_t i = 0; i < k; ++i) {
        std::memset(mult + std::size_t{i} * stride + off0, 0, live);
      }
      std::memset(tower, 0, live);
      return;
    }
    default:
      compute_multiplicity_rows_body<32>(node, mult, tower, k, stride, off0,
                                         live);
      return;
  }
}
#endif

void compute_multiplicity_rows(const NodeId* __restrict node,
                               std::uint8_t* __restrict mult,
                               std::uint8_t* __restrict tower,
                               std::uint32_t k, std::uint32_t stride,
                               std::uint32_t off0, std::uint32_t live) {
#ifdef PEF_BATCH_HAS_ISA_WRAPPERS
  switch (active_isa()) {
    case BatchIsa::kAvx512:
      compute_multiplicity_rows_avx512(node, mult, tower, k, stride, off0,
                                       live);
      return;
    case BatchIsa::kAvx2:
      compute_multiplicity_rows_avx2(node, mult, tower, k, stride, off0,
                                     live);
      return;
    case BatchIsa::kPortable:
      break;
  }
#endif
  compute_multiplicity_rows_body<16>(node, mult, tower, k, stride, off0,
                                     live);
}

/// The two ring-edge ids adjacent to node `u` in a robot's frame: .first
/// is the pointed (ahead) edge, .second the opposite one.  Single source of
/// the ahead/behind mapping all three batched passes share (edge e joins
/// nodes e and e+1 mod n, so the clockwise edge of u is u itself).
[[gnu::always_inline]] inline std::pair<EdgeId, EdgeId> adjacent_edges(
    NodeId u, bool ahead_cw, std::uint32_t n) {
  const EdgeId edge_cw = u;
  const EdgeId edge_ccw = u == 0 ? n - 1 : u - 1;
  return ahead_cw ? std::pair<EdgeId, EdgeId>{edge_cw, edge_ccw}
                  : std::pair<EdgeId, EdgeId>{edge_ccw, edge_cw};
}

[[gnu::always_inline]] inline bool edge_present(const std::uint64_t* words,
                                                EdgeId e) {
  return (words[e >> 6] >> (e & 63)) & 1ULL;
}

/// The node one step from `u` in the given global direction.
[[gnu::always_inline]] inline NodeId step_node(NodeId u, bool clockwise,
                                               std::uint32_t n) {
  return clockwise ? (u + 1 == n ? 0 : u + 1) : (u == 0 ? n - 1 : u - 1);
}

/// Everything the fused FSYNC pass touches, as raw restrict-able pointers,
/// so the pass can live in free functions compiled per ISA level.  Edge
/// words come as the contiguous plane base + row stride (lane l's row is
/// edges + l * ewpr).  The pass covers the lane range [l0, l1) — one
/// replica block's slice of the planes.
struct FsyncPassArgs {
  std::uint32_t l0 = 0;
  std::uint32_t l1 = 0;
  std::uint32_t stride = 0;
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  NodeId* node = nullptr;
  std::uint8_t* dir = nullptr;
  const std::uint8_t* cw = nullptr;
  const std::uint8_t* mult = nullptr;
  Xoshiro256* krng = nullptr;
  std::uint64_t* kcounter = nullptr;
  std::uint8_t* khas_moved = nullptr;
  const KernelSpec* spec = nullptr;
  const std::uint64_t* edges = nullptr;
  std::uint32_t ewpr = 0;
  std::uint64_t* moves = nullptr;
};

/// With every edge present, a kernel's Compute collapses: the edge tests
/// are constant-true, so the direction update is a pure function of the
/// multiplicity byte and the has_moved byte — straight-line byte-plane
/// arithmetic with no per-lane state loads.  These kernels take the
/// branchless two-loop body below (one byte loop for Compute, one u32
/// loop for Move); oscillating (per-lane period) and random-walk (serial
/// RNG) keep the generic body.
template <KernelId Id>
inline constexpr bool kAllFullBranchless =
    Id == KernelId::kKeepDirection || Id == KernelId::kBounce ||
    Id == KernelId::kPef1 || Id == KernelId::kPef2 ||
    Id == KernelId::kPef3Plus || Id == KernelId::kPef3PlusNoRule2 ||
    Id == KernelId::kPef3PlusNoRule3;

// ONE fused Look+Compute+Move pass, replica-stride inner loop.  Fusing is
// sound because every Look input is frozen for the round: E_t and the
// multiplicity plane never change mid-round, and a robot's Move only
// writes its own node-plane slot.  In the AllFull instantiation the body
// is pure contiguous plane arithmetic — no gathers, no branches — which
// is exactly what the replica axis was laid out for.
template <KernelId Id, bool AllFull>
[[gnu::always_inline]] inline void fsync_pass_body(const FsyncPassArgs& a) {
  const std::uint32_t l0 = a.l0;
  const std::uint32_t l1 = a.l1;
  const std::uint32_t n = a.n;
  NodeId* const __restrict node = a.node;
  std::uint8_t* const __restrict dir = a.dir;
  const std::uint8_t* const __restrict cw = a.cw;
  const std::uint8_t* const __restrict mult = a.mult;
  Xoshiro256* const __restrict krng = a.krng;
  std::uint64_t* const __restrict kcounter = a.kcounter;
  std::uint8_t* const __restrict khas_moved = a.khas_moved;
  const KernelSpec* const __restrict spec = a.spec;
  const std::uint64_t* const __restrict edges = a.edges;
  const std::uint32_t ewpr = a.ewpr;

  if constexpr (AllFull && kAllFullBranchless<Id>) {
    // Branchless form (see kAllFullBranchless).  LocalDirection is {0, 1}
    // with opposite == XOR 1, so "turn iff P" is dir ^= P for a 0/1 byte
    // P, and the keep/bounce/pef1/pef2 rules reduce to no Compute at all
    // (their turn conditions need an absent edge).  Move is one modular
    // step whose direction is a byte compare — the whole robot row is two
    // vectorizable loops over contiguous plane rows.
    for (std::uint32_t i = 0; i < a.k; ++i) {
      const std::size_t base = std::size_t{i} * a.stride;
      std::uint8_t* const __restrict d = dir + base;
      const std::uint8_t* const __restrict m = mult + base;
      std::uint8_t* const __restrict hm = khas_moved + base;
      const std::uint8_t* const __restrict c = cw + base;
      NodeId* const __restrict nd = node + base;
      if constexpr (kPef3Family<Id>) {
        for (std::uint32_t l = l0; l < l1; ++l) {
          d[l] ^= both_edges_turn<Id>(hm[l], m[l]);
          hm[l] = both_edges_has_moved;
        }
      }
      for (std::uint32_t l = l0; l < l1; ++l) {
        const NodeId u = nd[l];
        const NodeId up = u + 1 == n ? 0 : u + 1;
        const NodeId dn = u == 0 ? n - 1 : u - 1;
        nd[l] = d[l] == c[l] ? up : dn;
      }
    }
    for (std::uint32_t l = l0; l < l1; ++l) a.moves[l] += a.k;
    return;
  }

  for (std::uint32_t i = 0; i < a.k; ++i) {
    const std::size_t base = std::size_t{i} * a.stride;
    for (std::uint32_t l = l0; l < l1; ++l) {
      const std::size_t at = base + l;
      const NodeId u = node[at];
      View view;
      if constexpr (AllFull) {
        view.exists_edge_ahead = true;
        view.exists_edge_behind = true;
      } else {
        const bool ahead_cw = dir[at] == cw[at];
        const auto [ahead, behind] = adjacent_edges(u, ahead_cw, n);
        const std::uint64_t* const words = edges + std::size_t{l} * ewpr;
        view.exists_edge_ahead = edge_present(words, ahead);
        view.exists_edge_behind = edge_present(words, behind);
      }
      view.other_robots_on_node = mult[at] != 0;
      auto d = static_cast<LocalDirection>(dir[at]);
      kernel_compute<Id>(spec[l], view, d,
                         kernel_state_at<Id>(krng, kcounter, khas_moved, at));
      dir[at] = static_cast<std::uint8_t>(d);

      // Move: cross the pointed edge (in the post-Compute direction) iff
      // present; with a full E_t every robot crosses.
      const bool move_cw = static_cast<std::uint8_t>(d) == cw[at];
      if constexpr (AllFull) {
        node[at] = step_node(u, move_cw, n);
      } else {
        const EdgeId pointed = adjacent_edges(u, move_cw, n).first;
        if (edge_present(edges + std::size_t{l} * ewpr, pointed)) {
          node[at] = step_node(u, move_cw, n);
          ++a.moves[l];
        }
      }
    }
  }
  if constexpr (AllFull) {
    // Every robot of every live replica moved.
    for (std::uint32_t l = l0; l < l1; ++l) a.moves[l] += a.k;
  }
}

// The ISA dispatch mirrors compute_multiplicity_rows; target_clones does
// not apply to templates, so the AVX2/AVX-512 wrappers carry plain target
// attributes (the always_inline body is re-codegenned inside each) and
// fsync_pass_run picks a wrapper via the shared active_isa() tier.
#ifdef PEF_BATCH_HAS_ISA_WRAPPERS
template <KernelId Id, bool AllFull>
__attribute__((target("avx2"))) void fsync_pass_avx2(const FsyncPassArgs& a) {
  fsync_pass_body<Id, AllFull>(a);
}
template <KernelId Id, bool AllFull>
__attribute__((target(PEF_BATCH_AVX512_TARGET))) void fsync_pass_avx512(
    const FsyncPassArgs& a) {
  fsync_pass_body<Id, AllFull>(a);
}
#endif

template <KernelId Id, bool AllFull>
void fsync_pass_run(const FsyncPassArgs& a) {
#ifdef PEF_BATCH_HAS_ISA_WRAPPERS
  switch (active_isa()) {
    case BatchIsa::kAvx512:
      fsync_pass_avx512<Id, AllFull>(a);
      return;
    case BatchIsa::kAvx2:
      fsync_pass_avx2<Id, AllFull>(a);
      return;
    case BatchIsa::kPortable:
      break;
  }
#endif
  fsync_pass_body<Id, AllFull>(a);
}

}  // namespace

// ---------------------------------------------------------------------------
// Adaptive batch sizing (calibrated on BENCH_scaling's batch_throughput
// series; see bench/bench_scaling.cpp and BENCH_scaling.json at the repo
// root for the underlying measurements).

std::uint32_t batch_break_even(ExecutionModel model, std::uint32_t n,
                               std::uint32_t k) {
  (void)model, (void)n;
  // Below 4 replicas the batch runs the stamped multiplicity path and the
  // solo Engine's incremental occupancy histogram wins (the measured B=1
  // regression was ~0.94x); by B=4 the replica-stride passes amortize on
  // every model (sparse SSYNC/ASYNC activation keeps the batch's mask fill
  // cheap, but the solo engine is cheaper per round too: same knee).  Huge
  // robot counts push the crossover up: the batch pays O(k^2) row compares
  // where the solo engine pays O(k), and the stamped-multiplicity regime
  // amortizes later.
  return k >= 48 ? 8 : 4;
}

std::uint32_t preferred_batch_width(ExecutionModel model, std::uint32_t n,
                                    std::uint32_t k) {
  (void)k;
  // The lane-major per-lane footprint is the visit row (8n bytes) plus,
  // off-FSYNC, the occupancy row (4n): cap the batch where those rows
  // stay inside a mid-size L2/L3 budget, and never below the 64-lane
  // block the SIMD passes and the threading slices are built on.
  const std::uint64_t per_lane =
      std::uint64_t{8} * n +
      (model == ExecutionModel::kFsync ? 0 : std::uint64_t{4} * n);
  constexpr std::uint64_t kLaneBudgetBytes = std::uint64_t{8} << 20;
  std::uint32_t width = 256;
  while (width > 64 && std::uint64_t{width} * per_lane > kLaneBudgetBytes) {
    width /= 2;
  }
  return width;
}

BatchPlan plan_batch(ExecutionModel model, std::uint32_t n, std::uint32_t k,
                     std::uint64_t seeds, std::uint32_t max_batch) {
  BatchPlan plan;
  if (seeds < 2 || max_batch == 1) {
    plan.width = 1;
    return plan;
  }
  std::uint64_t width =
      max_batch == 0 ? preferred_batch_width(model, n, k) : max_batch;
  width = std::min<std::uint64_t>(width, seeds);
  if (width < batch_break_even(model, n, k)) {
    plan.width = 1;  // too narrow to amortize: solo Engines win
    return plan;
  }
  plan.width = static_cast<std::uint32_t>(width);
  return plan;
}

void wire_standard_replica(BatchReplica& replica, ExecutionModel model,
                           AdversaryPtr adversary, double activation_p,
                           std::uint64_t seed) {
  switch (model) {
    case ExecutionModel::kFsync:
      replica.adversary = std::move(adversary);
      break;
    case ExecutionModel::kSsync:
      replica.ssync_adversary =
          std::make_unique<SsyncFromFsyncAdversary>(std::move(adversary));
      replica.activation = standard_ssync_activation(activation_p, seed).rule;
      break;
    case ExecutionModel::kAsync:
      replica.ssync_adversary =
          std::make_unique<SsyncFromFsyncAdversary>(std::move(adversary));
      replica.activation = standard_async_phases(activation_p, seed).rule;
      break;
  }
}

BatchPlan run_seed_group(
    const SeedGroup& group,
    const std::function<SeedRun(std::uint64_t index)>& make_seed,
    const std::function<void(std::uint64_t index, const SeedResult& result)>&
        on_result) {
  using Clock = std::chrono::steady_clock;
  // The BatchEngine records no traces, and its u32 visit cells bound the
  // horizon: traced groups and groups that do not fit run solo.
  const BatchPlan plan =
      !group.record_trace && fits_batch(group.robots, group.horizon)
          ? plan_batch(group.model, group.ring.node_count(), group.robots,
                       group.seeds, group.max_batch)
          : BatchPlan{};

  if (!plan.use_batch()) {
    EngineOptions options;
    options.record_trace = group.record_trace;
    options.fast_forward = group.fast_forward;
    for (std::uint64_t i = 0; i < group.seeds; ++i) {
      SeedRun run = make_seed(i);
      const auto start = Clock::now();
      Engine engine = make_standard_engine(
          group.ring, group.model, std::move(run.algorithm),
          std::move(run.adversary), group.activation_p, run.seed,
          run.placements, options);
      engine.run(group.horizon);
      SeedResult result;
      result.wall_seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      result.stats = engine.stats();
      result.coverage = engine.coverage_report();
      if (engine.fast_forwarded()) {
        result.rounds_simulated = engine.rounds_simulated();
      }
      if (group.record_trace) result.trace = &engine.trace();
      on_result(i, result);
    }
    return plan;
  }

  BatchEngineOptions options;
  options.threads = group.engine_threads;
  options.fast_forward = group.fast_forward;
  for (std::uint64_t first = 0; first < group.seeds; first += plan.width) {
    const auto count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(plan.width, group.seeds - first));
    std::vector<BatchReplica> replicas(count);
    for (std::uint32_t b = 0; b < count; ++b) {
      SeedRun run = make_seed(first + b);
      BatchReplica& replica = replicas[b];
      replica.algorithm = std::move(run.algorithm);
      replica.placements = std::move(run.placements);
      replica.horizon = group.horizon;
      wire_standard_replica(replica, group.model, std::move(run.adversary),
                            group.activation_p, run.seed);
    }
    const auto start = Clock::now();
    BatchEngine engine(group.ring, group.model, std::move(replicas), options);
    engine.run_all();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count() / count;
    for (std::uint32_t b = 0; b < count; ++b) {
      SeedResult result;
      result.wall_seconds = wall;
      result.stats = engine.stats(b);
      result.coverage = engine.coverage_report(b);
      if (engine.fast_forwarded(b)) {
        result.rounds_simulated = engine.rounds_simulated(b);
      }
      on_result(first + b, result);
    }
  }
  return plan;
}

BatchEngine::BatchEngine(Ring ring, ExecutionModel model,
                         std::vector<BatchReplica> replicas,
                         BatchEngineOptions options)
    : ring_(ring), model_(model), options_(options) {
  PEF_CHECK_MSG(!replicas.empty(), "a batch needs at least one replica");
  batch_ = static_cast<std::uint32_t>(replicas.size());
  active_ = batch_;
  nodes_ = ring_.node_count();
  edge_count_ = ring_.edge_count();
  robots_ = static_cast<std::uint32_t>(replicas[0].placements.size());
  PEF_CHECK(robots_ >= 1);

  PEF_CHECK(replicas[0].algorithm != nullptr);
  kernel_id_ = replicas[0].algorithm->kernel().id;

  replica_of_lane_.resize(batch_);
  lane_of_replica_.resize(batch_);
  algorithms_.resize(batch_);
  specs_.resize(batch_);
  adversaries_.resize(batch_);
  ssync_advs_.resize(batch_);
  act_rules_.resize(batch_);
  schedules_.assign(batch_, nullptr);
  mirrors_.resize(batch_);
  horizons_.resize(batch_);

  const std::size_t plane = std::size_t{robots_} * batch_;
  node_.assign(plane, 0);
  dir_.assign(plane, static_cast<std::uint8_t>(LocalDirection::kLeft));
  right_cw_.assign(plane, 0);
  mult_.assign(plane, 0);
  kcounter_.assign(plane, 0);
  khas_moved_.assign(plane, 0);
  krng_.assign(kernel_id_ == KernelId::kRandomWalk ? plane : 1,
               Xoshiro256(0));
  if (model_ == ExecutionModel::kAsync) {
    pending_views_.assign(plane, View{});
  }

  visits_.assign(std::size_t{batch_} * nodes_, VisitCell{});

  // Intra-cell threading: resolve the requested thread count against the
  // machine (0 = one per physical core) and spin up the pinned team only
  // when the batch is wide enough to slice into 2+ 64-lane blocks — a
  // narrow batch would just pay barrier costs.
  threads_ = options_.threads;
  if (threads_ == 0) threads_ = HwTopology::detect().physical_cores;
  if (threads_ > 1 && batch_ > 64) {
    const std::uint32_t blocks = (batch_ + 63) / 64;
    team_ = std::make_unique<WorkerTeam>(std::min(threads_, blocks));
  }

  // Multiplicity path selection (see recompute_multiplicity): row compares
  // need enough replicas to amortize and O(k^2) work a moderate k.  Wide
  // batches push the crossover out — with 16 lanes per vector compare the
  // row sweep stays cheap to larger k than the narrow-batch tuning
  // assumed.
  const std::uint32_t compare_max_k = batch_ >= 64 ? 64 : 48;
  stamped_mult_ = batch_ < 4 || robots_ >= compare_max_k;
  if (stamped_mult_) {
    stamp_epoch_.assign(std::size_t{batch_} * nodes_, 0);
    stamp_count_.assign(std::size_t{batch_} * nodes_, 0);
  }

  // Replica-block tile width for the tiled run_all: the lane-major rows a
  // round walks per lane (visit cells, plus occupancy off-FSYNC, plus the
  // stamp rows when the stamp multiplicity path is on) should stay
  // L2-resident across a whole epoch of rounds.  Budget ~1.5 MiB of a
  // nominal 2 MiB L2; never below the 64-lane block everything else is
  // built on.
  {
    const std::uint64_t per_lane =
        std::uint64_t{8} * nodes_ +
        (model_ != ExecutionModel::kFsync ? std::uint64_t{4} * nodes_ : 0) +
        (stamped_mult_ ? std::uint64_t{8} * nodes_ : 0);
    constexpr std::uint64_t kTileBudgetBytes = std::uint64_t{3} << 19;
    std::uint32_t tile = (batch_ + 63) / 64 * 64;
    while (tile > 64 && std::uint64_t{tile} * per_lane > kTileBudgetBytes) {
      tile /= 2;
      tile = (tile + 63) / 64 * 64;
    }
    tile_lanes_ = tile;
  }

  edge_words_per_row_ = edge_word_count(edge_count_);
  edge_plane_.assign(std::size_t{batch_} * edge_words_per_row_, 0);
  edges_.resize(batch_);
  refill_.assign(batch_, 1);
  edges_full_.assign(batch_, 0);
  moves_.assign(batch_, 0);
  tower_flag_.assign(batch_, 0);
  prev_had_tower_.assign(batch_, 0);
  max_closed_gap_.assign(batch_, 0);
  stats_.assign(batch_, EngineStats{});

  if (model_ != ExecutionModel::kFsync) {
    lane_words_ = (batch_ + 63) / 64;
    const std::size_t mask_plane = std::size_t{robots_} * lane_words_;
    mask_words_.assign(mask_plane, 0);
    if (model_ == ExecutionModel::kAsync) {
      moving_words_.assign(mask_plane, 0);
      // Every robot starts in its Look phase: the look plane carries every
      // lane's bit, the other two start empty.
      look_words_.assign(mask_plane, 0);
      compute_words_.assign(mask_plane, 0);
      move_words_.assign(mask_plane, 0);
      for (std::uint32_t i = 0; i < robots_; ++i) {
        for (std::uint32_t l = 0; l < batch_; ++l) {
          look_words_[std::size_t{i} * lane_words_ + (l >> 6)] |=
              1ULL << (l & 63);
        }
      }
    }
    occ_.assign(std::size_t{batch_} * nodes_, 0);
    multi_nodes_.assign(batch_, 0);
    move_log_.resize(std::size_t{robots_} * batch_);
  }

  for (std::uint32_t l = 0; l < batch_; ++l) {
    replica_of_lane_[l] = l;
    lane_of_replica_[l] = l;
    init_replica(l, replicas[l]);
  }

  // With every lane schedule-backed and time-invariant (the static-ring
  // Monte-Carlo case) the per-round edge prologue has nothing to do.
  edge_refill_needed_ = false;
  for (std::uint32_t l = 0; l < batch_; ++l) {
    edge_refill_needed_ =
        edge_refill_needed_ || schedules_[l] == nullptr || refill_[l] != 0;
  }

  // Per-lane fast-forward: env_lattice's rule, as Engine::cycle_lattice
  // applies it.  Lanes first observe the t = 1 boundary.
  if (options_.fast_forward) {
    cycles_.resize(batch_);
    bool any_eligible = false;
    for (std::uint32_t l = 0; l < batch_; ++l) {
      const std::optional<EnvLattice> lattice =
          env_lattice(schedules_[l], act_rules_[l].kind, robots_);
      if (!lattice) continue;
      cycles_[l].start(*lattice, 1);
      any_eligible = true;
    }
    if (!any_eligible) cycles_.clear();
  }

  // The t = 0 boundary (Engine::init's observe_boundary(0)), serial —
  // construction is not a hot path.
  recompute_multiplicity(0, active_, 0);
  observe_boundary(0, 0, active_);
  for (std::uint32_t l = 0; l < batch_; ++l) {
    if (tower_flag_[l]) {
      ++stats_[l].tower_rounds;
      ++stats_[l].tower_formations;
      prev_had_tower_[l] = 1;
    }
  }

  // Zero-horizon replicas are done before the first step.
  retire_finished();
}

void BatchEngine::init_replica(std::uint32_t lane, BatchReplica& replica) {
  PEF_CHECK(replica.algorithm != nullptr);
  const KernelSpec kernel = replica.algorithm->kernel();
  PEF_CHECK_MSG(kernel.id == kernel_id_,
                "every replica of a batch must run the same KernelId");
  PEF_CHECK_MSG(replica.placements.size() == robots_,
                "every replica of a batch must place the same robot count");
  PEF_CHECK_MSG(fits_batch(robots_, replica.horizon),
                "batch horizons must fit the u32 visit cells (fits_batch)");

  switch (model_) {
    case ExecutionModel::kFsync:
      PEF_CHECK(replica.adversary != nullptr);
      PEF_CHECK(replica.adversary->ring() == ring_);
      break;
    case ExecutionModel::kSsync:
    case ExecutionModel::kAsync:
      PEF_CHECK(replica.ssync_adversary != nullptr);
      PEF_CHECK(replica.ssync_adversary->ring() == ring_);
      break;
  }

  if (options_.enforce_well_initiated) {
    PEF_CHECK_MSG(replica.placements.size() < nodes_,
                  "well-initiated executions need k < n");
    for (std::size_t a = 0; a < replica.placements.size(); ++a) {
      for (std::size_t b = a + 1; b < replica.placements.size(); ++b) {
        PEF_CHECK_MSG(replica.placements[a].node != replica.placements[b].node,
                      "well-initiated executions start towerless");
      }
    }
  }

  algorithms_[lane] = replica.algorithm;
  specs_[lane] = kernel;
  adversaries_[lane] = std::move(replica.adversary);
  ssync_advs_[lane] = std::move(replica.ssync_adversary);
  if (model_ != ExecutionModel::kFsync) act_rules_[lane] = replica.activation;
  horizons_[lane] = replica.horizon;

  for (std::uint32_t i = 0; i < robots_; ++i) {
    const RobotPlacement& p = replica.placements[i];
    PEF_CHECK(ring_.is_valid_node(p.node));
    const std::size_t at = std::size_t{i} * batch_ + lane;
    node_[at] = p.node;
    dir_[at] = static_cast<std::uint8_t>(LocalDirection::kLeft);
    right_cw_[at] = p.chirality.right_is_clockwise() ? 1 : 0;
    if (model_ != ExecutionModel::kFsync) {
      if (++occ_[std::size_t{lane} * nodes_ + p.node] == 2) {
        ++multi_nodes_[lane];
      }
    }
    init_kernel_state(
        specs_[lane], static_cast<RobotId>(i),
        KernelStateRef{
            krng_[kernel_id_ == KernelId::kRandomWalk ? at : 0],
            kcounter_[at], khas_moved_[at]});
  }

  // Route the lane's edge sets: schedule-backed lanes fill their plane row
  // in place (time-invariant ones once, here); everything else keeps a
  // per-lane EdgeSet scratch for the virtual adversary and a gamma mirror
  // for it to read.
  if (model_ == ExecutionModel::kFsync) {
    if (const auto* oblivious = dynamic_cast<const ObliviousAdversary*>(
            adversaries_[lane].get())) {
      schedules_[lane] = oblivious->schedule().get();
    }
  } else {
    schedules_[lane] = ssync_advs_[lane]->oblivious_schedule();
  }

  if (schedules_[lane] != nullptr && schedules_[lane]->time_invariant()) {
    refill_[lane] = 0;
    schedules_[lane]->edges_into_words(0, edge_row(lane));
    edges_full_[lane] =
        edge_words_full(edge_row(lane), edge_count_) ? 1 : 0;
  }
  if (schedules_[lane] == nullptr) {
    edges_[lane] = EdgeSet(edge_count_);
    mirrors_[lane] = std::make_unique<Configuration>(snapshot_lane(lane));
  }
}

template <typename Fn>
void BatchEngine::parallel_lane_slices(Fn&& fn) {
  const std::uint32_t live = active_;
  if (team_ == nullptr || live <= 64) {
    if (live > 0) fn(0u, live);
    return;
  }
  // Whole 64-lane blocks per slice: mask-word ranges stay word-aligned and
  // every byte-plane range starts on a cache line, so two slices never
  // write the same line.  All parallel state is lane-indexed, the slice
  // decomposition is a pure function of (live, slots), and each slice runs
  // its lanes in ascending order — so the threaded round computes exactly
  // the serial round's values in exactly the serial per-lane order.
  const std::uint32_t blocks = (live + 63) / 64;
  const std::uint32_t slots = team_->slots();
  team_->for_each_slot([&](std::uint32_t slot) {
    const std::uint32_t b0 =
        static_cast<std::uint32_t>(std::uint64_t{blocks} * slot / slots);
    const std::uint32_t b1 =
        static_cast<std::uint32_t>(std::uint64_t{blocks} * (slot + 1) / slots);
    const std::uint32_t lo = b0 * 64;
    const std::uint32_t hi = std::min(live, b1 * 64);
    if (lo < hi) fn(lo, hi);
  });
}

void BatchEngine::recompute_multiplicity(std::uint32_t l0, std::uint32_t l1,
                                         Time boundary_t) {
  if (stamped_mult_) {
    recompute_multiplicity_stamped(l0, l1, boundary_t);
    return;
  }
  // Replica-wide, gather-free: robot i's multiplicity bit in replica l is
  // "node row i agrees with some other node row at column l"; a replica
  // holds a tower iff any robot sees multiplicity.  Deliberately O(k^2)
  // per lane: for moderate k this beats maintaining an occupancy
  // histogram, whose per-robot scattered updates defeat the replica-stride
  // layout (the stamp path above covers the narrow-batch / huge-k
  // regimes).
  compute_multiplicity_rows(node_.data(), mult_.data(),
                            tower_flag_.data() + l0, robots_, batch_, l0,
                            l1 - l0);
}

void BatchEngine::recompute_multiplicity_stamped(std::uint32_t l0,
                                                 std::uint32_t l1,
                                                 Time boundary_t) {
  const std::uint32_t stride = batch_;
  const std::uint32_t k = robots_;
  const std::uint32_t n = nodes_;
  // The row epoch is derived from the boundary time, not a shared counter:
  // a lane's boundaries are strictly increasing, its stamp rows travel with
  // it through swap_lanes, rows start at 0, and horizons fit 32 bits (init
  // checks), so epoch values never repeat within a lane and never collide
  // with the zero fill.  Time-derived epochs are what lets tiles and
  // threads run rounds at different times with no cross-range state.
  const auto epoch = static_cast<std::uint32_t>(boundary_t) + 1;
  const NodeId* const node = node_.data();
  std::uint8_t* const mult = mult_.data();

  // O(k) per lane: stamp each occupied (lane, node) cell with this
  // boundary's epoch and count occupants, then read each robot's count
  // back.  Scattered, so only selected (at construction) when the batch is
  // too narrow to amortize row compares or k^2 is prohibitive.
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::size_t base = std::size_t{i} * stride;
    for (std::uint32_t l = l0; l < l1; ++l) {
      const std::size_t at = std::size_t{l} * n + node[base + l];
      if (stamp_epoch_[at] == epoch) {
        ++stamp_count_[at];
      } else {
        stamp_epoch_[at] = epoch;
        stamp_count_[at] = 1;
      }
    }
  }
  for (std::uint32_t l = l0; l < l1; ++l) tower_flag_[l] = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::size_t base = std::size_t{i} * stride;
    for (std::uint32_t l = l0; l < l1; ++l) {
      const std::size_t at = std::size_t{l} * n + node[base + l];
      const std::uint8_t m = stamp_count_[at] > 1 ? 1 : 0;
      mult[base + l] = m;
      tower_flag_[l] |= m;
    }
  }
}

void BatchEngine::observe_boundary(Time t, std::uint32_t l0,
                                   std::uint32_t l1) {
  const std::uint32_t stride = batch_;
  const std::uint32_t k = robots_;
  const std::uint32_t n = nodes_;
  const NodeId* const node = node_.data();
  const auto t32 = static_cast<std::uint32_t>(t);
  // Lane-major: each lane's visit row stays hot for its k cell updates and
  // the per-lane aggregates (gap maximum, cover bookkeeping) live in
  // registers across the robot loop.  Within a lane robots are processed
  // in index order, exactly like Engine::observe_boundary.  The cell
  // update is branch-free — first-visit handling and the gap maximum fold
  // into selects — because the first-visit and new-max branches flip
  // unpredictably and the mispredicts were costing more than the whole
  // fused pass (the tiled run keeps these rows L2-resident, so the
  // scattered touches themselves are cheap).
  for (std::uint32_t l = l0; l < l1; ++l) {
    VisitCell* const row = visits_.data() + std::size_t{l} * n;
    // Get all k scattered cell lines in flight before the update loop
    // touches any of them: a tile-round touches more lines than L1 holds,
    // so every cell is an L1 miss and the prefetches overlap what would
    // otherwise serialize behind the loop's loads.
    for (std::uint32_t i = 0; i < k; ++i) {
      __builtin_prefetch(row + node[std::size_t{i} * stride + l], 1);
    }
    EngineStats& st = stats_[l];
    // Four interleaved gap maxima: a single accumulator makes the round's
    // k updates one serial compare/select chain; four break it into
    // independent chains the core overlaps with the cell loads.
    Time mg[4] = {max_closed_gap_[l], 0, 0, 0};
    std::uint32_t visited = st.visited_node_count;
    for (std::uint32_t i = 0; i < k; ++i) {
      const NodeId u = node[std::size_t{i} * stride + l];
      VisitCell& cell = row[u];
      const bool first = cell.count == 0;
      const Time gap = first ? 0 : t - cell.last;
      Time& m = mg[i & 3];
      if (gap > m) m = gap;
      visited += first ? 1 : 0;
      ++cell.count;
      cell.last = t32;
    }
    if (visited != st.visited_node_count) {
      st.visited_node_count = visited;
      if (visited == n && !st.cover_time) st.cover_time = t;
    }
    max_closed_gap_[l] =
        std::max(std::max(mg[0], mg[1]), std::max(mg[2], mg[3]));
  }
}

template <KernelId Id>
void BatchEngine::model_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  switch (model_) {
    case ExecutionModel::kFsync:
      fsync_round<Id>(l0, l1, t);
      break;
    case ExecutionModel::kSsync:
      ssync_round<Id>(l0, l1, t);
      break;
    case ExecutionModel::kAsync:
      async_round<Id>(l0, l1, t);
      break;
  }
}

void BatchEngine::step() {
  PEF_CHECK_MSG(active_ > 0, "every replica already reached its horizon");
  // One range-local round per slice, no barriers inside.
  with_kernel_id(kernel_id_, [&]<KernelId Id>() {
    parallel_lane_slices([&](std::uint32_t l0, std::uint32_t l1) {
      model_round<Id>(l0, l1, now_);
    });
  });
  ++now_;
  retire_finished();
}

void BatchEngine::run_all() {
  // Temporal tiling: a round touches every live lane's visit/occupancy
  // rows, and at wide B those rows outgrow L2 — per-round sweeps stream
  // from L3 no matter how good the passes are.  Lanes are fully
  // independent simulations (state, RNG, kernel memory, mirrors, policies,
  // stamp rows are all lane-indexed), so reorder the time loop instead:
  // run each tile of tile_lanes_ lanes through a whole EPOCH of rounds
  // while its rows sit in L2, then move to the next tile.  Per-lane
  // results are bit-identical to the round-major order by construction.
  // Epochs end at the nearest horizon so lane retirement (and the dense
  // live prefix the tiles walk) stays exact.
  constexpr Time kEpochRounds = 64;
  with_kernel_id(kernel_id_, [&]<KernelId Id>() {
    while (active_ > 0) {
      Time span = kEpochRounds;
      for (std::uint32_t l = 0; l < active_; ++l) {
        span = std::min(span, horizons_[l] - now_);
      }
      const Time t0 = now_;
      parallel_lane_slices([&](std::uint32_t l0, std::uint32_t l1) {
        for (std::uint32_t b0 = l0; b0 < l1; b0 += tile_lanes_) {
          const std::uint32_t b1 = std::min(l1, b0 + tile_lanes_);
          for (Time dt = 0; dt < span; ++dt) model_round<Id>(b0, b1, t0 + dt);
        }
      });
      now_ += span;
      retire_finished();
    }
  });
}

void BatchEngine::refill_edges(std::uint32_t l0, std::uint32_t l1, Time t) {
  // E_t per lane of [l0, l1), written into the lane's edge-plane row.
  // Time-invariant lanes keep their construction fill; oblivious lanes
  // refill the row in place; adaptive lanes see their gamma mirror (and,
  // off-FSYNC, their own lane's mask column) and copy the resulting set's
  // words over.  The byte-mask scratch is local: a member would be shared
  // across worker slices.
  ActivationMask virt_mask;
  for (std::uint32_t l = l0; l < l1; ++l) {
    if (schedules_[l] != nullptr) {
      if (refill_[l]) {
        schedules_[l]->edges_into_words(t, edge_row(l));
        if (model_ == ExecutionModel::kFsync) {
          edges_full_[l] = edge_words_full(edge_row(l), edge_count_) ? 1 : 0;
        }
      }
      continue;
    }
    switch (model_) {
      case ExecutionModel::kFsync:
        edges_[l] = adversaries_[l]->choose_edges(t, *mirrors_[l]);
        edges_full_[l] = edges_[l].full() ? 1 : 0;
        break;
      case ExecutionModel::kSsync:
        extract_lane_mask(mask_words_.data(), l, virt_mask);
        ssync_advs_[l]->choose_edges_into(t, *mirrors_[l], virt_mask,
                                          edges_[l]);
        break;
      case ExecutionModel::kAsync:
        // The adversary sees which robots fire their Move phase this tick.
        extract_lane_mask(moving_words_.data(), l, virt_mask);
        ssync_advs_[l]->choose_edges_into(t, *mirrors_[l], virt_mask,
                                          edges_[l]);
        break;
    }
    PEF_CHECK(edges_[l].edge_count() == edge_count_);
    std::copy_n(edges_[l].words(), edge_words_per_row_, edge_row(l));
  }
}

template <KernelId Id>
void BatchEngine::fsync_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  if (edge_refill_needed_) refill_edges(l0, l1, t);
  // AllFull is decided per range: a range whose live rows are all full
  // takes the no-edge-test instantiation (which computes the same values
  // the generic body would — the tests are constant-true there).
  bool all_full = true;
  for (std::uint32_t l = l0; l < l1 && all_full; ++l) {
    all_full = edges_full_[l] != 0;
  }
  if (all_full) {
    fsync_pass<Id, true>(l0, l1);
  } else {
    fsync_pass<Id, false>(l0, l1);
  }
  recompute_multiplicity(l0, l1, t + 1);
  observe_boundary(t + 1, l0, l1);
  update_mirrors(l0, l1);
  finish_round(l0, l1, t + 1);
  if (!cycles_.empty()) observe_cycles(l0, l1, t + 1);
}

template <KernelId Id, bool AllFull>
void BatchEngine::fsync_pass(std::uint32_t l0, std::uint32_t l1) {
  FsyncPassArgs args;
  args.l0 = l0;
  args.l1 = l1;
  args.stride = batch_;
  args.k = robots_;
  args.n = nodes_;
  args.node = node_.data();
  args.dir = dir_.data();
  args.cw = right_cw_.data();
  args.mult = mult_.data();
  args.krng = krng_.data();
  args.kcounter = kcounter_.data();
  args.khas_moved = khas_moved_.data();
  args.spec = specs_.data();
  args.edges = edge_plane_.data();
  args.ewpr = edge_words_per_row_;
  args.moves = moves_.data();
  fsync_pass_run<Id, AllFull>(args);
}

void BatchEngine::fill_mask_words(std::uint32_t l0, std::uint32_t l1,
                                  Time t) {
  const std::uint32_t k = robots_;
  const std::uint32_t lw = lane_words_;
  const std::uint32_t rw = robot_words(k);
  std::uint64_t* const words = mask_words_.data();
  // Clear only this slice's word columns (l0 is 64-aligned, so [w0, w1)
  // covers exactly the slice's bits plus the final word's dead tail).
  const std::uint32_t w0 = l0 >> 6;
  const std::uint32_t w1 = (l1 + 63) >> 6;
  for (std::uint32_t i = 0; i < k; ++i) {
    std::fill(words + std::size_t{i} * lw + w0,
              words + std::size_t{i} * lw + w1, 0);
  }

  // Up to four lanes' robot bitsets, scattered into their lane's bit
  // column: one stack word per lane when k <= 64.  Slice-local, since a
  // member would be shared across the worker slices.
  std::uint64_t one_word[4];
  std::vector<std::uint64_t> multi_word;
  std::uint64_t* sets = one_word;
  if (rw > 1) {
    multi_word.resize(std::size_t{4} * rw);
    sets = multi_word.data();
  }
  const auto scatter = [&](const std::uint64_t* set, std::uint32_t lane) {
    const std::uint32_t word = lane >> 6;
    const std::uint64_t bit = 1ULL << (lane & 63);
    for (std::uint32_t w = 0; w < rw; ++w) {
      std::uint64_t b = set[w];
      while (b != 0) {
        const auto i =
            64 * w + static_cast<std::uint32_t>(__builtin_ctzll(b));
        b &= b - 1;
        words[std::size_t{i} * lw + word] |= bit;
      }
    }
  };

  // Bernoulli lanes four at a time: each lane's draws are a serial
  // xoshiro dependency chain, so interleaving four independent chains
  // multiplies the instruction-level parallelism of the fill (draw order
  // WITHIN each lane is unchanged — bit-identity holds, whatever lane
  // grouping a slice boundary induces).
  std::uint32_t l = l0;
  const auto bernoulli = [&](std::uint32_t lane) {
    return act_rules_[lane].kind == ActivationKind::kBernoulli;
  };
  while (l + 4 <= l1 && bernoulli(l) && bernoulli(l + 1) &&
         bernoulli(l + 2) && bernoulli(l + 3)) {
    ActivationRule* const rule = act_rules_.data() + l;
    Xoshiro256 rng[4] = {rule[0].rng, rule[1].rng, rule[2].rng, rule[3].rng};
    const double p[4] = {rule[0].p, rule[1].p, rule[2].p, rule[3].p};
    std::uint64_t* const out[4] = {sets, sets + rw, sets + 2 * rw,
                                   sets + 3 * rw};
    bernoulli_activation(rng, p, k, out);
    for (std::uint32_t j = 0; j < 4; ++j) {
      rule[j].rng = rng[j];
      scatter(out[j], l + j);
    }
    l += 4;
  }
  for (; l < l1; ++l) {
    fill_activation(act_rules_[l], t, k, sets);
    scatter(sets, l);
  }
}

void BatchEngine::fill_moving_words(std::uint32_t l0, std::uint32_t l1) {
  // moving = advancing AND in-Move-phase, one AND per robot-word.
  // Snapshotted before the tick's transitions: robots whose Compute fires
  // this tick enter their Move phase but must not move until the next
  // activation.
  const std::uint32_t w0 = l0 >> 6;
  const std::uint32_t w1 = (l1 + 63) >> 6;
  const std::uint64_t* const mask = mask_words_.data();
  const std::uint64_t* const move = move_words_.data();
  std::uint64_t* const moving = moving_words_.data();
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t row = std::size_t{i} * lane_words_;
    for (std::uint32_t w = w0; w < w1; ++w) {
      moving[row + w] = mask[row + w] & move[row + w];
    }
  }
}

void BatchEngine::extract_lane_mask(const std::uint64_t* plane,
                                    std::uint32_t lane,
                                    ActivationMask& out) const {
  out.assign(robots_, 0);
  const std::uint32_t word = lane >> 6;
  const std::uint32_t shift = lane & 63;
  for (std::uint32_t i = 0; i < robots_; ++i) {
    out[i] = static_cast<std::uint8_t>(
        (plane[std::size_t{i} * lane_words_ + word] >> shift) & 1ULL);
  }
}

template <KernelId Id>
void BatchEngine::ssync_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  fill_mask_words(l0, l1, t);
  if (edge_refill_needed_) refill_edges(l0, l1, t);
  const std::size_t log_end = ssync_pass<Id>(l0, l1);
  apply_move_log(std::size_t{l0} * robots_, log_end);
  for (std::uint32_t l = l0; l < l1; ++l) {
    tower_flag_[l] = multi_nodes_[l] != 0 ? 1 : 0;
  }
  observe_boundary(t + 1, l0, l1);
  update_mirrors(l0, l1);
  finish_round(l0, l1, t + 1);
  if (!cycles_.empty()) observe_cycles(l0, l1, t + 1);
}

template <KernelId Id>
std::size_t BatchEngine::ssync_pass(std::uint32_t l0, std::uint32_t l1) {
  const std::uint32_t stride = batch_;
  const std::uint32_t k = robots_;
  const std::uint32_t n = nodes_;
  const std::uint32_t lw = lane_words_;
  const std::uint32_t w0 = l0 >> 6;
  const std::uint32_t w1 = (l1 + 63) >> 6;
  NodeId* const node = node_.data();
  std::uint8_t* const dir = dir_.data();
  const std::uint8_t* const cw = right_cw_.data();
  Xoshiro256* const krng = krng_.data();
  std::uint64_t* const kcounter = kcounter_.data();
  std::uint8_t* const khas_moved = khas_moved_.data();
  const KernelSpec* const spec = specs_.data();
  const std::uint64_t* const edges = edge_plane_.data();
  const std::uint32_t ewpr = edge_words_per_row_;
  const std::uint64_t* const mask = mask_words_.data();
  const std::uint32_t* const occ = occ_.data();

  // Fused L-C-M with DEFERRED occupancy: the only cross-robot coupling in
  // a round is the Look phase's multiplicity bit, and it must read the
  // round-START occupancy — so Moves update node_ in place (no other
  // robot's Look reads it) but log their (lane, from, to) instead of
  // touching occ_, and the log is applied after the pass.  One mask-word
  // iteration total: the word plane loads cover 64 replicas each and ctz
  // jumps straight to the activated robots.  Each slice logs into its own
  // disjoint move_log_ region (lane l0's region starts at l0 * k — a
  // slice's lanes can move at most (l1 - l0) * k times).
  const std::size_t log_base = std::size_t{l0} * k;
  PendingMove* log_cursor = move_log_.data() + log_base;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::size_t base = std::size_t{i} * stride;
    for (std::uint32_t w = w0; w < w1; ++w) {
      std::uint64_t m = mask[std::size_t{i} * lw + w];
      while (m != 0) {
        const std::uint32_t l =
            (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(m));
        m &= m - 1;
        const std::size_t at = base + l;
        const NodeId u = node[at];
        const bool ahead_cw = dir[at] == cw[at];
        const auto [ahead, behind] = adjacent_edges(u, ahead_cw, n);
        const std::uint64_t* const words = edges + std::size_t{l} * ewpr;
        View view;
        view.exists_edge_ahead = edge_present(words, ahead);
        view.exists_edge_behind = edge_present(words, behind);
        view.other_robots_on_node = occ[std::size_t{l} * n + u] > 1;
        auto d = static_cast<LocalDirection>(dir[at]);
        kernel_compute<Id>(spec[l], view, d,
                           kernel_state_at<Id>(krng, kcounter, khas_moved, at));
        dir[at] = static_cast<std::uint8_t>(d);

        const bool move_cw = static_cast<std::uint8_t>(d) == cw[at];
        if (edge_present(words, adjacent_edges(u, move_cw, n).first)) {
          const NodeId to = step_node(u, move_cw, n);
          node[at] = to;
          ++moves_[l];
          *log_cursor++ = {l, u, to};
        }
      }
    }
  }
  return static_cast<std::size_t>(log_cursor - move_log_.data());
}

void BatchEngine::apply_move_log(std::size_t begin, std::size_t end) {
  // Replay moves onto the occupancy rows and tower counters.  Both are
  // lane-indexed and a range's log only names its own lanes, so a range
  // replays its own region immediately after its pass — no cross-range
  // draining, and the replay order within a range matches the serial one
  // (counter updates commute anyway).
  const std::uint32_t n = nodes_;
  const PendingMove* it = move_log_.data() + begin;
  const PendingMove* const stop = move_log_.data() + end;
  for (; it != stop; ++it) {
    const PendingMove& mv = *it;
    const std::size_t row = std::size_t{mv.lane} * n;
    if (--occ_[row + mv.from] == 1) --multi_nodes_[mv.lane];
    if (++occ_[row + mv.to] == 2) ++multi_nodes_[mv.lane];
  }
}

template <KernelId Id>
void BatchEngine::async_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  fill_mask_words(l0, l1, t);
  fill_moving_words(l0, l1);
  if (edge_refill_needed_) refill_edges(l0, l1, t);
  const std::size_t log_end = async_pass<Id>(l0, l1);
  apply_move_log(std::size_t{l0} * robots_, log_end);
  for (std::uint32_t l = l0; l < l1; ++l) {
    tower_flag_[l] = multi_nodes_[l] != 0 ? 1 : 0;
  }
  observe_boundary(t + 1, l0, l1);
  update_mirrors(l0, l1);
  finish_round(l0, l1, t + 1);
  if (!cycles_.empty()) observe_cycles(l0, l1, t + 1);
}

template <KernelId Id>
std::size_t BatchEngine::async_pass(std::uint32_t l0, std::uint32_t l1) {
  const std::uint32_t stride = batch_;
  const std::uint32_t k = robots_;
  const std::uint32_t n = nodes_;
  const std::uint32_t lw = lane_words_;
  const std::uint32_t w0 = l0 >> 6;
  const std::uint32_t w1 = (l1 + 63) >> 6;
  NodeId* const node = node_.data();
  std::uint8_t* const dir = dir_.data();
  const std::uint8_t* const cw = right_cw_.data();
  Xoshiro256* const krng = krng_.data();
  std::uint64_t* const kcounter = kcounter_.data();
  std::uint8_t* const khas_moved = khas_moved_.data();
  const KernelSpec* const spec = specs_.data();
  const std::uint64_t* const edges = edge_plane_.data();
  const std::uint32_t ewpr = edge_words_per_row_;
  const std::uint64_t* const mask = mask_words_.data();
  const std::uint64_t* const moving = moving_words_.data();
  std::uint64_t* const look_w = look_words_.data();
  std::uint64_t* const compute_w = compute_words_.data();
  std::uint64_t* const move_w = move_words_.data();
  View* const pending = pending_views_.data();
  const std::uint32_t* const occ = occ_.data();

  // An advancing robot executes exactly one of Look / Compute / Move this
  // tick.  The one-hot phase planes resolve each subset by a word AND
  // against the advancing mask — no per-robot phase loads, no
  // data-dependent branches — and the matched bits transition between
  // planes as whole words.  Lookers and movers are disjoint robots and a
  // Move only writes its own node slot, so ONE fused pass is sound with
  // the same deferred-occupancy trick as SSYNC: every Look reads the
  // tick-start occ_ because moves log their occupancy deltas instead of
  // applying them.  moving_words_ was snapshotted before any transition,
  // so a Compute firing this tick does not also Move this tick.  Like
  // ssync_pass, the slice logs into its own move_log_ region.
  const std::size_t log_base = std::size_t{l0} * k;
  PendingMove* log_cursor = move_log_.data() + log_base;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::size_t base = std::size_t{i} * stride;
    for (std::uint32_t w = w0; w < w1; ++w) {
      const std::size_t mw = std::size_t{i} * lw + w;
      const std::uint64_t adv = mask[mw];
      const std::uint64_t lk = adv & look_w[mw];
      const std::uint64_t cp = adv & compute_w[mw];
      const std::uint64_t mv = moving[mw];

      std::uint64_t m = lk;
      while (m != 0) {
        const std::uint32_t l =
            (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(m));
        m &= m - 1;
        const std::size_t at = base + l;
        // Snapshot against the CURRENT edge set and configuration; the
        // view may be stale by the time Compute / Move execute.
        const NodeId u = node[at];
        const bool ahead_cw = dir[at] == cw[at];
        const auto [ahead, behind] = adjacent_edges(u, ahead_cw, n);
        const std::uint64_t* const words = edges + std::size_t{l} * ewpr;
        View view;
        view.exists_edge_ahead = edge_present(words, ahead);
        view.exists_edge_behind = edge_present(words, behind);
        view.other_robots_on_node = occ[std::size_t{l} * n + u] > 1;
        pending[at] = view;
      }

      m = cp;
      while (m != 0) {
        const std::uint32_t l =
            (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(m));
        m &= m - 1;
        const std::size_t at = base + l;
        auto d = static_cast<LocalDirection>(dir[at]);
        kernel_compute<Id>(
            spec[l], pending[at], d,
            kernel_state_at<Id>(krng, kcounter, khas_moved, at));
        dir[at] = static_cast<std::uint8_t>(d);
      }

      m = mv;
      while (m != 0) {
        const std::uint32_t l =
            (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(m));
        m &= m - 1;
        const std::size_t at = base + l;
        const NodeId u = node[at];
        const bool move_cw = dir[at] == cw[at];
        const std::uint64_t* const words = edges + std::size_t{l} * ewpr;
        if (edge_present(words, adjacent_edges(u, move_cw, n).first)) {
          const NodeId to = step_node(u, move_cw, n);
          node[at] = to;
          ++moves_[l];
          *log_cursor++ = {l, u, to};
        }
      }

      // Word-level transitions: L -> C, C -> M, M -> L.
      look_w[mw] = (look_w[mw] & ~lk) | mv;
      compute_w[mw] = (compute_w[mw] & ~cp) | lk;
      move_w[mw] = (move_w[mw] & ~mv) | cp;
    }
  }
  return static_cast<std::size_t>(log_cursor - move_log_.data());
}

void BatchEngine::update_mirrors(std::uint32_t l0, std::uint32_t l1) {
  // Lanes with a gamma mirror get it refreshed from the planes; dirs and
  // positions that did not change are no-op writes (relocate_robot
  // self-checks), so one uniform pass is correct for every model.  Lanes
  // without a mirror (batchable adversary + devirtualized policy — the
  // common sweep case) skip this entirely.
  for (std::uint32_t l = l0; l < l1; ++l) {
    Configuration* const mirror = mirrors_[l].get();
    if (mirror == nullptr) continue;
    for (std::uint32_t i = 0; i < robots_; ++i) {
      const std::size_t at = std::size_t{i} * batch_ + l;
      mirror->set_robot_dir(i, static_cast<LocalDirection>(dir_[at]));
      mirror->relocate_robot(i, node_[at]);
    }
  }
}

void BatchEngine::finish_round(std::uint32_t l0, std::uint32_t l1, Time t1) {
  for (std::uint32_t l = l0; l < l1; ++l) {
    stats_[l].rounds = t1;
    stats_[l].total_moves = moves_[l];
    if (tower_flag_[l]) {
      ++stats_[l].tower_rounds;
      if (!prev_had_tower_[l]) ++stats_[l].tower_formations;
      prev_had_tower_[l] = 1;
    } else {
      prev_had_tower_[l] = 0;
    }
  }
}

template <typename Sink>
bool BatchEngine::lane_state_words(std::uint32_t lane, Sink&& sink) const {
  const std::uint32_t stride = batch_;
  const bool rng_state = kernel_id_ == KernelId::kRandomWalk;
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t at = std::size_t{i} * stride + lane;
    if (!sink((static_cast<std::uint64_t>(node_[at]) << 32) |
              (static_cast<std::uint64_t>(dir_[at]) << 1) | right_cw_[at]) ||
        !sink(kcounter_[at]) || !sink(khas_moved_[at])) {
      return false;
    }
    if (rng_state) {
      for (const std::uint64_t word : krng_[at].state()) {
        if (!sink(word)) return false;
      }
    }
  }
  if (model_ == ExecutionModel::kAsync) {
    // One-hot phase planes + pending Look views (stale views are
    // deterministic too, so including them only tightens the test).
    const std::uint64_t bit = 1ULL << (lane & 63);
    for (std::uint32_t i = 0; i < robots_; ++i) {
      const std::size_t at = std::size_t{i} * stride + lane;
      const std::size_t w = std::size_t{i} * lane_words_ + (lane >> 6);
      std::uint64_t phase = 0;
      if ((compute_words_[w] & bit) != 0) phase = 1;
      if ((move_words_[w] & bit) != 0) phase = 2;
      const View& view = pending_views_[at];
      if (!sink((phase << 3) |
                (static_cast<std::uint64_t>(view.exists_edge_ahead) << 2) |
                (static_cast<std::uint64_t>(view.exists_edge_behind) << 1) |
                static_cast<std::uint64_t>(view.other_robots_on_node))) {
        return false;
      }
    }
  }
  return true;
}

void BatchEngine::observe_cycles(std::uint32_t l0, std::uint32_t l1, Time t) {
  for (std::uint32_t l = l0; l < l1; ++l) {
    if (cycles_[l].next() != t) continue;
    const VisitCell* row = visits_.data() + std::size_t{l} * nodes_;
    cycles_[l].observe(
        t, horizons_[l], stats_[l], nodes_,
        [row](std::uint32_t u) { return std::uint64_t{row[u].count}; },
        [this, l](auto&& sink) { return lane_state_words(l, sink); });
  }
}

void BatchEngine::retire_finished() {
  // retire_finished runs exactly at epoch boundaries (run_all) or between
  // rounds (step), so no epoch span is in flight: safe point to shrink
  // armed lanes' horizons.
  const std::uint32_t tracked = cycles_.empty() ? 0 : active_;
  for (std::uint32_t l = 0; l < tracked; ++l) {
    CycleTracker& cycle = cycles_[l];
    if (cycle.stage() != CycleTracker::Stage::kArmed) continue;
    const Time skip = cycle.skip(now_, horizons_[l], stats_[l]);
    if (skip == 0) continue;
    moves_[l] = stats_[l].total_moves;
    // fits_batch bounds every final count, so the u32 sum is exact.
    VisitCell* row = visits_.data() + std::size_t{l} * nodes_;
    for (std::uint32_t u = 0; u < nodes_; ++u) {
      row[u].count += static_cast<std::uint32_t>(cycle.visits_added(u));
    }
    horizons_[l] -= skip;
  }
  for (std::uint32_t l = active_; l-- > 0;) {
    if (stats_[l].rounds < horizons_[l]) continue;
    const Time skipped = cycles_.empty() ? Time{0} : cycles_[l].skipped();
    if (skipped > 0) {
      stats_[l].rounds += skipped;  // == the replica's true horizon
      VisitCell* row = visits_.data() + std::size_t{l} * nodes_;
      for (std::uint32_t u = 0; u < nodes_; ++u) {
        // In-cycle nodes had their true last visit in the replayed window,
        // `skipped` later than the local stamp; nodes last seen before the
        // cycle keep their (already true) stamp.
        if (cycles_[l].visits_added(u) != 0) {
          row[u].last += static_cast<std::uint32_t>(skipped);
        }
      }
    }
    const std::uint32_t last = --active_;
    if (l != last) swap_lanes(l, last);
  }
}

void BatchEngine::swap_lanes(std::uint32_t a, std::uint32_t b) {
  using std::swap;
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t pa = std::size_t{i} * batch_ + a;
    const std::size_t pb = std::size_t{i} * batch_ + b;
    swap(node_[pa], node_[pb]);
    swap(dir_[pa], dir_[pb]);
    swap(right_cw_[pa], right_cw_[pb]);
    swap(mult_[pa], mult_[pb]);
    swap(kcounter_[pa], kcounter_[pb]);
    swap(khas_moved_[pa], khas_moved_[pb]);
    if (kernel_id_ == KernelId::kRandomWalk) swap(krng_[pa], krng_[pb]);
    if (model_ == ExecutionModel::kAsync) {
      swap(pending_views_[pa], pending_views_[pb]);
      // One-hot phase planes: swap lane a's and b's bits in each plane.
      const std::size_t wa = std::size_t{i} * lane_words_ + (a >> 6);
      const std::size_t wb = std::size_t{i} * lane_words_ + (b >> 6);
      const std::uint64_t bit_a = 1ULL << (a & 63);
      const std::uint64_t bit_b = 1ULL << (b & 63);
      for (std::uint64_t* plane :
           {look_words_.data(), compute_words_.data(), move_words_.data()}) {
        const bool va = (plane[wa] & bit_a) != 0;
        const bool vb = (plane[wb] & bit_b) != 0;
        if (va != vb) {
          plane[wa] ^= bit_a;
          plane[wb] ^= bit_b;
        }
      }
    }
  }
  const std::size_t ra = std::size_t{a} * nodes_;
  const std::size_t rb = std::size_t{b} * nodes_;
  std::swap_ranges(visits_.begin() + ra, visits_.begin() + ra + nodes_,
                   visits_.begin() + rb);
  if (stamped_mult_) {
    std::swap_ranges(stamp_epoch_.begin() + ra,
                     stamp_epoch_.begin() + ra + nodes_,
                     stamp_epoch_.begin() + rb);
    std::swap_ranges(stamp_count_.begin() + ra,
                     stamp_count_.begin() + ra + nodes_,
                     stamp_count_.begin() + rb);
  }
  // Edge rows are addressed by lane index, so the row CONTENTS move (the
  // mask word planes are per-round scratch, regenerated before use — no
  // swap needed there).
  const std::size_t ea = std::size_t{a} * edge_words_per_row_;
  const std::size_t eb = std::size_t{b} * edge_words_per_row_;
  std::swap_ranges(edge_plane_.begin() + ea,
                   edge_plane_.begin() + ea + edge_words_per_row_,
                   edge_plane_.begin() + eb);

  swap(algorithms_[a], algorithms_[b]);
  swap(specs_[a], specs_[b]);
  swap(adversaries_[a], adversaries_[b]);
  swap(ssync_advs_[a], ssync_advs_[b]);
  swap(act_rules_[a], act_rules_[b]);
  swap(schedules_[a], schedules_[b]);
  swap(mirrors_[a], mirrors_[b]);
  swap(horizons_[a], horizons_[b]);
  swap(edges_[a], edges_[b]);
  swap(refill_[a], refill_[b]);
  swap(edges_full_[a], edges_full_[b]);
  swap(moves_[a], moves_[b]);
  swap(tower_flag_[a], tower_flag_[b]);
  swap(prev_had_tower_[a], prev_had_tower_[b]);
  swap(max_closed_gap_[a], max_closed_gap_[b]);
  swap(stats_[a], stats_[b]);
  if (!cycles_.empty()) swap(cycles_[a], cycles_[b]);
  if (model_ != ExecutionModel::kFsync) {
    swap(multi_nodes_[a], multi_nodes_[b]);
    std::swap_ranges(occ_.begin() + ra, occ_.begin() + ra + nodes_,
                     occ_.begin() + rb);
  }

  const std::uint32_t replica_a = replica_of_lane_[a];
  const std::uint32_t replica_b = replica_of_lane_[b];
  replica_of_lane_[a] = replica_b;
  replica_of_lane_[b] = replica_a;
  lane_of_replica_[replica_a] = b;
  lane_of_replica_[replica_b] = a;
}

// ---------------------------------------------------------------------------
// Per-replica results.

const EngineStats& BatchEngine::stats(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  return stats_[lane_of_replica_[replica]];
}

bool BatchEngine::fast_forwarded(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  return !cycles_.empty() &&
         cycles_[lane_of_replica_[replica]].skipped() > 0;
}

Time BatchEngine::rounds_simulated(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  const std::uint32_t l = lane_of_replica_[replica];
  const Time skipped = cycles_.empty() ? Time{0} : cycles_[l].skipped();
  return stats_[l].rounds - skipped;
}

Time BatchEngine::detected_period(std::uint32_t replica) const {
  return fast_forwarded(replica)
             ? cycles_[lane_of_replica_[replica]].period()
             : Time{0};
}

CoverageReport BatchEngine::coverage_report(std::uint32_t replica,
                                            Time suffix_window) const {
  PEF_CHECK(replica < batch_);
  const std::uint32_t l = lane_of_replica_[replica];
  const Time local_now = stats_[l].rounds;
  const std::size_t row = std::size_t{l} * nodes_;

  CoverageReport report;
  report.horizon = local_now;
  report.suffix_window =
      suffix_window == 0 ? local_now / 4 + 1 : suffix_window;
  report.visit_counts.resize(nodes_);
  for (NodeId u = 0; u < nodes_; ++u) {
    report.visit_counts[u] = visits_[row + u].count;
  }
  report.visited_node_count = stats_[l].visited_node_count;
  report.cover_time = stats_[l].cover_time;
  report.max_closed_gap = max_closed_gap_[l];

  const Time suffix_start =
      local_now >= report.suffix_window ? local_now - report.suffix_window : 0;
  for (NodeId u = 0; u < nodes_; ++u) {
    const VisitCell& cell = visits_[row + u];
    const Time open_gap = cell.count != 0 ? local_now - cell.last : local_now;
    report.max_revisit_gap =
        std::max({report.max_revisit_gap, report.max_closed_gap, open_gap});
    if (cell.count != 0 && cell.last >= suffix_start) {
      ++report.nodes_visited_in_suffix;
    }
  }
  return report;
}

NodeId BatchEngine::robot_node(std::uint32_t replica, RobotId r) const {
  PEF_CHECK(replica < batch_ && r < robots_);
  return node_[std::size_t{r} * batch_ + lane_of_replica_[replica]];
}

Configuration BatchEngine::snapshot(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  return snapshot_lane(lane_of_replica_[replica]);
}

Configuration BatchEngine::snapshot_lane(std::uint32_t lane) const {
  std::vector<RobotSnapshot> snaps;
  snaps.reserve(robots_);
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t at = std::size_t{i} * batch_ + lane;
    RobotSnapshot s;
    s.node = node_[at];
    s.dir = static_cast<LocalDirection>(dir_[at]);
    s.chirality = Chirality(right_cw_[at] != 0);
    snaps.push_back(std::move(s));
  }
  return Configuration(ring_, std::move(snaps));
}

}  // namespace pef
