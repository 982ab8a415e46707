// BatchEngine — the replica-batched Monte-Carlo execution core.
//
// A sweep cell, a figure bench and a seed battery all run the SAME scenario
// (ring, algorithm, execution model, horizon) B times with different seeds
// or adversary draws.  Running those as B independent Engines wastes the
// structure: every replica re-pays the round-loop fixed costs (kernel
// dispatch, adversary virtual calls, loop setup) and the per-replica state
// is touched in B separate passes with cold caches between seeds.
//
// BatchEngine advances all B replicas in lock-step — one call to step()
// runs one round of every unfinished replica — with the robot state laid
// out struct-of-arrays ACROSS replicas:
//
//     node_[robot * B + replica]          (u32 plane)
//     dir_ / right_cw_ / mult_[robot * B + replica]  (byte planes)
//     krng_ / kcounter_ / khas_moved_[robot * B + replica]
//                                         (kernel memory, one plane per
//                                          KernelState field)
//     visits_[replica * n + node]         (count+last-visit cells)
//
// so the round loops iterate robot-major with a replica-stride inner loop:
// B independent replicas' worth of identical, branch-light work the
// compiler can vectorize and the core can overlap (no serial dependence
// between replicas).  The Compute phase is the enum-dispatched kernel path
// of robot/kernel.hpp — the KernelId is lifted to a template parameter
// ONCE per round, so each kernel's Look+Compute body inlines straight into
// the replica loop: this is the SIMD hook the per-kernel loop
// instantiation was built for.
//
// The key deviation from Engine's round core: BatchEngine keeps NO
// occupancy histogram.  The only things occupancy feeds are the Look
// phase's multiplicity bit and the tower stats, and both reduce to the
// per-robot predicate "does some other robot share my node" — which one
// counting pass over the node planes recomputes per boundary as a byte
// plane (mult_): k^2 replica-wide vector compares with no gathers or
// scatters.  With the multiplicity plane and E_t frozen for the round,
// Look, Compute and Move fuse into ONE replica-stride pass (no robot's
// action changes another's inputs), followed by a visit-bookkeeping pass
// over 8-byte per-(replica, node) cells.
//
// The per-round ROUND PROLOGUE (who acts, which edges exist) is batched
// too — SSYNC and ASYNC are first-class citizens of the planes, not a
// scalar per-replica preamble:
//
//   * edge words live in ONE contiguous plane, one row per replica.
//     Replicas whose adversary is per-replica-independent (an oblivious
//     schedule — every `batchable` registry kind) fill their row in place
//     via EdgeSchedule::edges_into_words, with no EdgeSet and no
//     Configuration mirror; time-invariant schedules fill once at
//     construction and never refill, and a round whose live rows are all
//     full runs the FSYNC AllFull instantiation with no edge tests at all.
//   * SSYNC activation masks and ASYNC advance/move masks are robot-major
//     uint64 WORD planes (bit = replica).  Each lane holds its own
//     ActivationRule (full, round-robin or Bernoulli-p; scheduler/ssync.hpp)
//     and one pass fills every lane's mask bits through fill_activation —
//     the function Engine and the reference simulators call — with
//     Bernoulli lanes drawn four at a time by the same bernoulli_activation,
//     so each lane replays its solo run's stream draw for draw.  The SSYNC
//     / ASYNC passes then iterate mask words (ctz over set bits) instead of
//     testing every (robot, replica) byte.
//   * Configuration mirrors are materialized LAZILY: only replicas whose
//     edge adversary is adaptive (it sees gamma) carry one; everything else
//     skips the per-round mirror refresh entirely.
//   * replicas that reach their horizon are compacted out (their lane is
//     swapped with the last live lane), so the inner loops always run over
//     a dense prefix of live replicas and a ragged batch never idles.
//
// Results are BIT-IDENTICAL to B independent Engine runs: per-replica
// adversaries and activation rules consume the same streams in the same
// order as a solo run.  tests/batch_engine_test.cpp
// steps a batch round by round next to B solo Engines and pins every live
// replica's configuration and stats after every round, then final stats and
// coverage through both step() and the tiled run_all(), across every
// registry kernel x {FSYNC, SSYNC, ASYNC} x batchable and non-batchable
// adversaries x seeds, including ragged horizons.
//
// The batch records no traces: run_seed_group runs every traced seed group
// on solo Engines, which record them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "common/types.hpp"
#include "engine/engine.hpp"
#include "engine/topology.hpp"
#include "robot/algorithm.hpp"
#include "robot/kernel.hpp"
#include "robot/robot.hpp"
#include "robot/view.hpp"
#include "scheduler/async.hpp"
#include "scheduler/ssync.hpp"
#include "scheduler/trace.hpp"

namespace pef {

/// One replica of the batch: the same scenario shape as one Engine run.
/// Every replica must share the ring, the robot count and the algorithm's
/// KernelId; seeds, placements, adversary draws and horizons may differ.
struct BatchReplica {
  /// The batch runs its kernel (Algorithm::kernel()).  The KernelSpec may
  /// differ per replica (per-seed random-walk streams), the KernelId may
  /// not.
  AlgorithmPtr algorithm;

  /// FSYNC: the per-replica edge adversary.
  AdversaryPtr adversary;
  /// SSYNC / ASYNC: the per-replica edge adversary (sees the activation /
  /// moving mask).
  std::unique_ptr<SsyncAdversary> ssync_adversary;
  /// SSYNC: selects the L-C-M subset each round.  ASYNC: selects the
  /// robots that advance one phase each tick.  Unread under FSYNC.
  ActivationRule activation;

  std::vector<RobotPlacement> placements;

  /// Rounds (FSYNC/SSYNC) or ticks (ASYNC) this replica runs before it is
  /// compacted out of the batch.  Horizons may differ across replicas, and
  /// each must satisfy fits_batch.
  Time horizon = 0;
};

/// Whether `robots` robots over `horizon` rounds fit a BatchEngine's u32
/// visit cells: a node collects at most robots x (horizon + 1) visits
/// (boundaries 0..horizon), and that bound <= UINT32_MAX also keeps every
/// u32 last-visit stamp (<= horizon) exact.  The BatchEngine constructor
/// checks it per replica; run_seed_group routes groups that do not fit to
/// solo Engines, which count in 64 bits.
[[nodiscard]] constexpr bool fits_batch(std::uint32_t robots, Time horizon) {
  constexpr Time kMaxVisits = std::numeric_limits<std::uint32_t>::max();
  return horizon < kMaxVisits / std::max<Time>(robots, 1);
}

/// Wire `replica`'s model-specific pieces the way run_seed_group wires
/// every batched seed (the batched counterpart of make_standard_engine):
/// FSYNC takes the adversary directly; SSYNC/ASYNC adapt it through
/// SsyncFromFsyncAdversary and attach the standard seeded Bernoulli
/// activation / phase scheduler, so batched and solo runs of the same
/// (model, seed) see identical streams.
void wire_standard_replica(BatchReplica& replica, ExecutionModel model,
                           AdversaryPtr adversary, double activation_p,
                           std::uint64_t seed);

struct BatchEngineOptions {
  /// Enforce the paper's well-initiated execution requirements per replica.
  bool enforce_well_initiated = true;

  /// Intra-cell worker threads: the replica axis is split into 64-lane
  /// blocks and the hot phases (fused pass, multiplicity recompute, visit
  /// bookkeeping) run block ranges on a pinned WorkerTeam.  Every parallel
  /// section writes only lane-indexed state and block-local move-log
  /// regions are drained in block order, so results (stats, coverage) are
  /// bit-identical to threads == 1 at any thread count.
  /// 0 = one thread per physical core; 1 (default) = serial.
  std::uint32_t threads = 1;

  /// Per-lane cycle detection + exact stat extrapolation (see cycle.hpp
  /// and Engine's option of the same name).  A lane that proves a cycle
  /// has its horizon shrunk to the final partial period and retires into
  /// the existing ragged-horizon compaction; ineligible lanes (Bernoulli
  /// activation, adaptive adversaries) run to their full horizon.
  /// Per-replica results are bit-identical either way.
  bool fast_forward = false;
};

// ---------------------------------------------------------------------------
// Adaptive batch sizing
//
// The batch only wins once enough replicas amortize its round overheads
// (mask/multiplicity plane passes, the wider working set); below that the
// solo Engine's occupancy histogram is strictly cheaper.  The break-even
// point and the preferred width were calibrated from BENCH_scaling's
// batch_throughput series per activation model and n/k regime.  Every seed
// group (SweepRunner, pef_run --batch, run_battery) runs through
// run_seed_group, which asks plan_batch, so the B=1..small regime never
// regresses against solo Engines.

/// The smallest replica count at which a BatchEngine beats `B` solo Engine
/// runs of the same scenario (>= 2 always: one replica is never batched).
[[nodiscard]] std::uint32_t batch_break_even(ExecutionModel model,
                                             std::uint32_t n, std::uint32_t k);

/// The calibrated sweet-spot batch width for one scenario: wide enough to
/// saturate the replica-stride SIMD passes, capped where the lane-major
/// visit/occupancy rows would outgrow the cache budget (large n narrows
/// the batch).
[[nodiscard]] std::uint32_t preferred_batch_width(ExecutionModel model,
                                                  std::uint32_t n,
                                                  std::uint32_t k);

/// How to run `seeds` same-scenario replicas.  width == 1 means "run solo
/// Engines"; width > 1 means "BatchEngine in chunks of width".
/// `max_batch` caps the width; 0 means adaptive (preferred width).  A cap
/// below break-even routes to solo Engines — the cap is a ceiling, not a
/// demand to batch at a losing width.
struct BatchPlan {
  std::uint32_t width = 1;
  [[nodiscard]] bool use_batch() const { return width > 1; }
};
[[nodiscard]] BatchPlan plan_batch(ExecutionModel model, std::uint32_t n,
                                   std::uint32_t k, std::uint64_t seeds,
                                   std::uint32_t max_batch);

// ---------------------------------------------------------------------------
// Seed groups
//
// A seed group is one scenario (ring, model, horizon) run over many seeds.
// run_seed_group is the single place that decides how: solo Engines or
// BatchEngine chunks of plan_batch's width, and solo whenever the group is
// traced or does not fit the batch's u32 visit cells (fits_batch).  Either
// route yields bit-identical per-seed results.

/// The scenario every seed of a group shares.
struct SeedGroup {
  Ring ring;
  std::uint32_t robots = 0;
  ExecutionModel model = ExecutionModel::kFsync;
  Time horizon = 0;
  double activation_p = 0.5;
  std::uint64_t seeds = 0;
  /// Width cap handed to plan_batch: 0 = adaptive, 1 = always solo.
  std::uint32_t max_batch = 0;
  /// Intra-cell worker threads for batched chunks (BatchEngineOptions).
  std::uint32_t engine_threads = 1;
  bool fast_forward = false;
  /// Record each seed's Trace.  Traced groups always run on solo Engines
  /// (the BatchEngine records no traces), whatever max_batch says.
  bool record_trace = false;
};

/// One seed's scenario objects, built by the caller's factory.  `seed`
/// seeds the standard SSYNC/ASYNC activation stream.
struct SeedRun {
  std::uint64_t seed = 0;
  AlgorithmPtr algorithm;
  AdversaryPtr adversary;
  std::vector<RobotPlacement> placements;
};

/// One seed's results, valid only during the callback (the trace belongs
/// to the solo Engine that produced it).
struct SeedResult {
  EngineStats stats;
  CoverageReport coverage;
  /// Rounds actually stepped when the cycle detector engaged; 0 = ran
  /// plain.
  Time rounds_simulated = 0;
  /// Non-null iff group.record_trace (traced groups always run solo).
  const Trace* trace = nullptr;
  /// The seed's share of its engine's construct-and-run time (a batched
  /// chunk's time is split evenly over its seeds).
  double wall_seconds = 0;
};

/// Run seeds 0..group.seeds-1: `make_seed(i)` builds seed i's scenario and
/// `on_result(i, result)` receives its results, in index order.  Returns
/// the plan it used.
BatchPlan run_seed_group(
    const SeedGroup& group,
    const std::function<SeedRun(std::uint64_t index)>& make_seed,
    const std::function<void(std::uint64_t index, const SeedResult& result)>&
        on_result);

class BatchEngine {
 public:
  BatchEngine(Ring ring, ExecutionModel model,
              std::vector<BatchReplica> replicas,
              BatchEngineOptions options = {});

  /// One lock-step round (FSYNC/SSYNC) or tick (ASYNC) of every unfinished
  /// replica — the same *_round functions run_all tiles, over
  /// parallel_lane_slices — then compaction of replicas that reached their
  /// horizon.  The batch records no trace; traced seed groups run on solo
  /// Engines (run_seed_group).
  void step();

  /// Run until every replica reaches its horizon.
  void run_all();

  [[nodiscard]] ExecutionModel model() const { return model_; }
  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t replica_count() const { return batch_; }
  /// Replicas that have not yet reached their horizon.
  [[nodiscard]] std::uint32_t active_replicas() const { return active_; }
  [[nodiscard]] std::uint32_t robot_count() const { return robots_; }
  /// Rounds/ticks advanced so far (== every live replica's local time).
  [[nodiscard]] Time now() const { return now_; }

  // Per-replica results, indexed by construction order (stable across
  // internal lane compaction).
  [[nodiscard]] const EngineStats& stats(std::uint32_t replica) const;
  [[nodiscard]] CoverageReport coverage_report(std::uint32_t replica,
                                               Time suffix_window = 0) const;
  /// Fast-forward telemetry, per replica (see Engine::fast_forwarded).
  [[nodiscard]] bool fast_forwarded(std::uint32_t replica) const;
  [[nodiscard]] Time rounds_simulated(std::uint32_t replica) const;
  [[nodiscard]] Time detected_period(std::uint32_t replica) const;
  [[nodiscard]] NodeId robot_node(std::uint32_t replica, RobotId r) const;
  [[nodiscard]] Configuration snapshot(std::uint32_t replica) const;

 private:
  void init_replica(std::uint32_t lane, BatchReplica& replica);
  /// ONE round of lanes [l0, l1) at time t — edge refill, pass, boundary
  /// bookkeeping (multiplicity/occupancy, visits, mirrors, round stats),
  /// touching no state outside the lane range.  This is the unit step(),
  /// the tiled run_all and the threaded slices all compose; model_round()
  /// picks the model's.
  template <KernelId Id>
  void model_round(std::uint32_t l0, std::uint32_t l1, Time t);
  template <KernelId Id>
  void fsync_round(std::uint32_t l0, std::uint32_t l1, Time t);
  template <KernelId Id>
  void ssync_round(std::uint32_t l0, std::uint32_t l1, Time t);
  template <KernelId Id>
  void async_round(std::uint32_t l0, std::uint32_t l1, Time t);
  /// Split the live lanes [0, active_) into slices of whole 64-lane blocks
  /// (one slice per team slot) and run fn(l0, l1) on each — on the worker
  /// team when options_.threads > 1, inline otherwise.  64-lane
  /// granularity keeps every plane write word- and cache-line-disjoint
  /// across slices (mask words hold 64 lane bits; 64 byte-plane lanes are
  /// one cache line), so fn needs no synchronization.
  template <typename Fn>
  void parallel_lane_slices(Fn&& fn);
  /// The per-kernel FSYNC pass over lanes [l0, l1): one fused
  /// Look+Compute+Move sweep with a replica-stride inner loop.  AllFull
  /// elides every edge-presence test (every live replica's E_t is the full
  /// set, so every robot moves).
  template <KernelId Id, bool AllFull>
  void fsync_pass(std::uint32_t l0, std::uint32_t l1);
  /// SSYNC/ASYNC passes over [l0, l1); both log their moves into the
  /// range's own move_log_ region and return the log's end index for
  /// apply_move_log.
  template <KernelId Id>
  [[nodiscard]] std::size_t ssync_pass(std::uint32_t l0, std::uint32_t l1);
  template <KernelId Id>
  [[nodiscard]] std::size_t async_pass(std::uint32_t l0, std::uint32_t l1);
  /// E_t for lanes [l0, l1) at time t: schedule-backed lanes refill their
  /// edge row in place, mirror-path lanes go through the virtual adversary
  /// (reading only their own lane's mask columns / gamma mirror).
  void refill_edges(std::uint32_t l0, std::uint32_t l1, Time t);
  /// Replay move_log_[begin, end) onto occ_ / multi_nodes_.
  void apply_move_log(std::size_t begin, std::size_t end);

  /// Lane `lane`'s row of the contiguous edge-word plane.
  [[nodiscard]] std::uint64_t* edge_row(std::uint32_t lane) {
    return edge_plane_.data() + std::size_t{lane} * edge_words_per_row_;
  }
  [[nodiscard]] const std::uint64_t* edge_row(std::uint32_t lane) const {
    return edge_plane_.data() + std::size_t{lane} * edge_words_per_row_;
  }

  /// The batched activation prologue shared by SSYNC (activation) and
  /// ASYNC (phase advance): clear the mask word plane, then set the bits
  /// of lanes [l0, l1) (a whole-word range) from each lane's rule.
  void fill_mask_words(std::uint32_t l0, std::uint32_t l1, Time t);
  /// ASYNC: moving = advancing AND (phase == Move), word columns [l0, l1).
  void fill_moving_words(std::uint32_t l0, std::uint32_t l1);
  /// Lane `lane`'s column of a mask word plane as a 0/1 byte mask (the
  /// adaptive-adversary path speaks ActivationMask).
  void extract_lane_mask(const std::uint64_t* plane, std::uint32_t lane,
                         ActivationMask& out) const;

  /// Recompute the multiplicity byte plane and per-lane tower flags of
  /// lanes [l0, l1) from the node planes (replica-wide compares, or the
  /// stamp path for small batches / large robot counts; no occupancy
  /// histogram exists to maintain).  `boundary_t` is the configuration
  /// time: the stamp path derives its row epoch from it (strictly
  /// increasing per lane, so no shared counter and no cross-slice state).
  void recompute_multiplicity(std::uint32_t l0, std::uint32_t l1,
                              Time boundary_t);
  void recompute_multiplicity_stamped(std::uint32_t l0, std::uint32_t l1,
                                      Time boundary_t);
  /// Visit/cover bookkeeping for every robot of lanes [l0, l1) at config
  /// time `t` (the batched equivalent of Engine::observe_boundary, minus
  /// the tower flags which recompute_multiplicity owns).
  void observe_boundary(Time t, std::uint32_t l0, std::uint32_t l1);
  /// Refresh the gamma mirrors of lanes [l0, l1) from the planes (dirs +
  /// positions).  Mirrors are lazy: only lanes whose adversary sees gamma
  /// carry one, everything else is skipped.
  void update_mirrors(std::uint32_t l0, std::uint32_t l1);
  /// Per-lane end-of-round bookkeeping for lanes [l0, l1) at round-end
  /// time t1: tower stats, round counters.
  void finish_round(std::uint32_t l0, std::uint32_t l1, Time t1);
  /// Advance the CycleTracker of every lane of [l0, l1) due at boundary
  /// t (cycle.hpp).  Lane-local state only, so it composes with tiles and
  /// worker slices.
  void observe_cycles(std::uint32_t l0, std::uint32_t l1, Time t);
  /// Lane `lane`'s CycleTracker state visitor (Engine::state_words' word
  /// layout, read straight from the planes).
  template <typename Sink>
  bool lane_state_words(std::uint32_t lane, Sink&& sink) const;
  /// Swap finished lanes out of the live prefix.  At this epoch boundary
  /// armed lanes skip first: their stats take every whole period left
  /// before the horizon, which shrinks to the final partial period.  Visit
  /// `last` stamps stay in the lane's local (un-skipped) clock until the
  /// lane retires, so the replay keeps exact gap bookkeeping; retirement
  /// then shifts the rounds and the in-cycle stamps by the skipped span.
  void retire_finished();
  void swap_lanes(std::uint32_t a, std::uint32_t b);
  [[nodiscard]] Configuration snapshot_lane(std::uint32_t lane) const;

  Ring ring_;
  ExecutionModel model_ = ExecutionModel::kFsync;
  BatchEngineOptions options_;
  KernelId kernel_id_ = KernelId::kKeepDirection;
  std::uint32_t batch_ = 0;   // B: replica count == lane capacity
  std::uint32_t active_ = 0;  // live lanes are 0..active_-1
  std::uint32_t robots_ = 0;  // k
  std::uint32_t nodes_ = 0;   // n
  std::uint32_t edge_count_ = 0;
  Time now_ = 0;

  // Lane <-> replica maps (compaction permutes lanes, never replica ids).
  std::vector<std::uint32_t> replica_of_lane_;
  std::vector<std::uint32_t> lane_of_replica_;

  // Per-lane scenario objects.
  std::vector<AlgorithmPtr> algorithms_;
  std::vector<KernelSpec> specs_;
  std::vector<AdversaryPtr> adversaries_;                    // FSYNC
  std::vector<std::unique_ptr<SsyncAdversary>> ssync_advs_;  // SSYNC/ASYNC
  /// Per-lane activation rules (kFull under FSYNC); Bernoulli lanes
  /// advance their stream in place.
  std::vector<ActivationRule> act_rules_;
  /// Non-null iff the lane's edge sets are a pure function of time (FSYNC
  /// oblivious adversary, or an SSYNC/ASYNC adversary exposing
  /// oblivious_schedule()): the lane's plane row is filled straight from
  /// the schedule, no EdgeSet, no mirror.
  std::vector<const EdgeSchedule*> schedules_;
  /// Lazy gamma mirrors: null for lanes nothing looks at.
  std::vector<std::unique_ptr<Configuration>> mirrors_;
  std::vector<Time> horizons_;

  // Intra-cell threading (options_.threads resolved against HwTopology at
  // construction): the team exists only when threads_ > 1 AND the batch is
  // wide enough to slice (>= 2 blocks of 64 lanes).
  std::uint32_t threads_ = 1;
  std::unique_ptr<WorkerTeam> team_;
  /// Replica-block tile width (a multiple of 64 lanes, chosen at
  /// construction so one tile's lane-major rows — visits, occupancy,
  /// stamps — stay L2-resident).  The tiled run_all runs each tile through
  /// a whole epoch of rounds before moving to the next tile; lanes are
  /// fully independent simulations, so any round interleaving across lanes
  /// computes bit-identical per-lane results.
  std::uint32_t tile_lanes_ = 64;

  // Robot state planes, stride batch_ (robot-major, replica-minor), in
  // PlaneVectors: 64-byte-aligned rows for the SIMD passes, and the
  // multi-MB lane-major planes (visits_, occ_, stamps) get 2 MiB-aligned
  // MADV_HUGEPAGE regions — at B=256 those rows are walked by scattered
  // per-robot accesses and 4 KiB pages thrash the TLB (see topology.hpp).
  PlaneVector<NodeId> node_;
  PlaneVector<std::uint8_t> dir_;
  PlaneVector<std::uint8_t> right_cw_;
  PlaneVector<std::uint8_t> mult_;     // boundary multiplicity bits (0/1)
  // Kernel memory as per-FIELD planes (the batched form of KernelState):
  // keeping each field contiguous along the replica axis lets the fused
  // pass vectorize stateful kernels — pef3+'s has_moved flag is a byte
  // plane here instead of one byte strided across 48-byte structs.  The
  // rng plane is allocated only for random-walk batches (one dummy slot
  // otherwise).
  PlaneVector<Xoshiro256> krng_;
  PlaneVector<std::uint64_t> kcounter_;
  PlaneVector<std::uint8_t> khas_moved_;
  PlaneVector<View> pending_views_;    // ASYNC: Look snapshots

  /// Visit bookkeeping of one (lane, node): one cache access per robot per
  /// boundary.  `last` is only meaningful when `count > 0`; 32 bits suffice
  /// because every replica passes fits_batch at construction.
  struct VisitCell {
    std::uint32_t count = 0;
    std::uint32_t last = 0;
  };
  // Per-(lane, node) cells, lane-major rows of length nodes_.
  PlaneVector<VisitCell> visits_;

  // The edge-word plane: E_t of lane l is the row of edge_words_per_row_
  // words at l * edge_words_per_row_ (EdgeSet::words() bit layout).
  // Schedule-backed lanes are filled in place by edges_into_words;
  // mirror-path lanes fill their per-lane EdgeSet scratch (edges_) through
  // the virtual adversary and copy the words over (a few words per round,
  // dwarfed by the adversary itself).
  std::uint32_t edge_words_per_row_ = 0;
  PlaneVector<std::uint64_t> edge_plane_;
  std::vector<EdgeSet> edges_;            // mirror-path scratch only
  std::vector<std::uint8_t> refill_;      // 0 = time-invariant, filled once
  std::vector<std::uint8_t> edges_full_;  // E_t is the full set
  std::vector<std::uint64_t> moves_;      // per-lane move counter (hot)
  std::vector<std::uint8_t> tower_flag_;  // some node holds >= 2 robots
  std::vector<std::uint8_t> prev_had_tower_;
  std::vector<Time> max_closed_gap_;
  std::vector<EngineStats> stats_;

  // SSYNC activation / ASYNC advance masks as robot-major WORD planes:
  // bit l of word (robot * lane_words_ + l / 64) = "robot acts in lane l".
  // Regenerated every round before use (never swapped on compaction).
  std::uint32_t lane_words_ = 0;
  PlaneVector<std::uint64_t> mask_words_;
  /// ASYNC: advancing AND in-Move-phase (mask_words_ & move_words_, one
  /// word AND per robot-word) — what the edge adversary and the Move pass
  /// see.  Snapshotted before the tick's phase transitions.
  PlaneVector<std::uint64_t> moving_words_;

  // ASYNC phase machines as ONE-HOT word planes (same geometry as
  // mask_words_): a robot's phase is which plane holds its lane bit.
  // Membership tests are word ANDs against the advancing mask and the
  // L->C->C->M->M->L transitions are word ops on the matched bits — no
  // per-robot phase bytes, no data-dependent branches in the tick pass.
  PlaneVector<std::uint64_t> look_words_;
  PlaneVector<std::uint64_t> compute_words_;
  PlaneVector<std::uint64_t> move_words_;

  // SSYNC/ASYNC: per-lane occupancy rows (lane-major, like visits_) and a
  // per-lane towered-node counter, updated incrementally from the moves —
  // when only the activated subset moves, sparse counter updates beat
  // FSYNC's full multiplicity recompute, and the tower flag is just
  // multi_nodes_[lane] != 0.  FSYNC keeps the recompute (every robot moves
  // every round, and the row compares vectorize).  The SSYNC pass stays
  // fused by logging its moves (Looks must read round-start occupancy)
  // and replaying the log after the pass.
  PlaneVector<std::uint32_t> occ_;          // [lane * nodes_ + node]
  std::vector<std::uint32_t> multi_nodes_;  // nodes holding >= 2 robots
  struct PendingMove {
    std::uint32_t lane;
    NodeId from;
    NodeId to;
  };
  // Per-round scratch, presized to robots_ * batch_ (the maximum moves of
  // one round); the passes append through a raw cursor — no capacity
  // checks or size bookkeeping in the hot loop.  Lane range [l0, l1) owns
  // the region at l0 * robots_ (capacity (l1-l0) * robots_ == its maximum
  // moves), so threaded passes log without contention; each pass returns
  // its cursor and the range replays its own region immediately (occ_ and
  // multi_nodes_ are lane-indexed, so the replay is range-local too).
  PlaneVector<PendingMove> move_log_;
  /// False once every live lane's edge row is filled for good (all
  /// schedule-backed, all time-invariant): the per-round edge prologue is
  /// skipped entirely.  Monotone under lane retirement.
  bool edge_refill_needed_ = true;

  // Multiplicity scratch.  The compare path accumulates per-robot node
  // occurrence counts in u32 rows (mult_scratch_); the stamp path — used
  // when the batch is too narrow or the robot count too large for O(k^2)
  // row compares to win — tags visited (lane, node) cells with an epoch
  // and counts occupants directly (stamp_epoch_ / stamp_count_, allocated
  // only when that path is selected at construction).
  bool stamped_mult_ = false;
  PlaneVector<std::uint32_t> stamp_epoch_;
  PlaneVector<std::uint32_t> stamp_count_;

  /// Per-lane fast-forward trackers; empty unless fast_forward is on and
  /// some lane is eligible.
  std::vector<CycleTracker> cycles_;
};

}  // namespace pef
