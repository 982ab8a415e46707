#include "engine/engine.hpp"

#include <algorithm>

#include "algorithms/kernels.hpp"
#include "common/check.hpp"

namespace pef {
std::optional<ExecutionModel> parse_execution_model(const std::string& name) {
  if (name == "fsync") return ExecutionModel::kFsync;
  if (name == "ssync") return ExecutionModel::kSsync;
  if (name == "async") return ExecutionModel::kAsync;
  return std::nullopt;
}

Engine make_standard_engine(Ring ring, ExecutionModel model,
                            AlgorithmPtr algorithm, AdversaryPtr adversary,
                            double activation_p, std::uint64_t seed,
                            const std::vector<RobotPlacement>& placements,
                            EngineOptions options) {
  if (model == ExecutionModel::kFsync) {
    return Engine(ring, std::move(algorithm), std::move(adversary),
                  placements, options);
  }
  auto wrapped =
      std::make_unique<SsyncFromFsyncAdversary>(std::move(adversary));
  if (model == ExecutionModel::kSsync) {
    return Engine(ring, std::move(algorithm), std::move(wrapped),
                  standard_ssync_activation(activation_p, seed), placements,
                  options);
  }
  return Engine(ring, std::move(algorithm), std::move(wrapped),
                standard_async_phases(activation_p, seed), placements,
                options);
}

Engine::Engine(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
               const std::vector<RobotPlacement>& placements,
               EngineOptions options)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      model_(ExecutionModel::kFsync),
      options_(options),
      adversary_(std::move(adversary)) {
  PEF_CHECK(adversary_ != nullptr);
  PEF_CHECK(adversary_->ring() == ring_);
  init(placements);

  // Oblivious adversaries never look at gamma: bypass the Configuration
  // mirror entirely and fill the scratch EdgeSet in place each round.
  if (const auto* oblivious =
          dynamic_cast<const ObliviousAdversary*>(adversary_.get())) {
    schedule_ = oblivious->schedule().get();
  } else {
    gamma_mirror_ = std::make_unique<Configuration>(snapshot());
  }
}

Engine::Engine(Ring ring, AlgorithmPtr algorithm,
               std::unique_ptr<SsyncAdversary> adversary,
               std::unique_ptr<ActivationPolicy> activation,
               const std::vector<RobotPlacement>& placements,
               EngineOptions options)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      model_(ExecutionModel::kSsync),
      options_(options),
      ssync_adversary_(std::move(adversary)),
      activation_(std::move(activation)) {
  PEF_CHECK(ssync_adversary_ != nullptr);
  PEF_CHECK(activation_ != nullptr);
  PEF_CHECK(ssync_adversary_->ring() == ring_);
  init(placements);
  // Policies and SSYNC adversaries see gamma every round: keep one
  // persistent mirror, updated in place as robots act.
  gamma_mirror_ = std::make_unique<Configuration>(snapshot());
}

Engine::Engine(Ring ring, AlgorithmPtr algorithm,
               std::unique_ptr<SsyncAdversary> adversary,
               std::unique_ptr<PhaseScheduler> phases,
               const std::vector<RobotPlacement>& placements,
               EngineOptions options)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      model_(ExecutionModel::kAsync),
      options_(options),
      ssync_adversary_(std::move(adversary)),
      phase_scheduler_(std::move(phases)) {
  PEF_CHECK(ssync_adversary_ != nullptr);
  PEF_CHECK(phase_scheduler_ != nullptr);
  PEF_CHECK(ssync_adversary_->ring() == ring_);
  init(placements);
  phases_.assign(node_.size(), Phase::kLook);
  pending_views_.assign(node_.size(), View{});
  gamma_mirror_ = std::make_unique<Configuration>(snapshot());
}

void Engine::init(const std::vector<RobotPlacement>& placements) {
  PEF_CHECK(algorithm_ != nullptr);
  PEF_CHECK(!placements.empty());

  if (options_.enforce_well_initiated) {
    PEF_CHECK_MSG(placements.size() < ring_.node_count(),
                  "well-initiated executions need k < n");
    for (std::size_t a = 0; a < placements.size(); ++a) {
      for (std::size_t b = a + 1; b < placements.size(); ++b) {
        PEF_CHECK_MSG(placements[a].node != placements[b].node,
                      "well-initiated executions start towerless");
      }
    }
  }

  kernel_ = algorithm_->kernel();

  occ_.assign(ring_.node_count(), 0);
  edges_ = EdgeSet(ring_.edge_count());
  visit_counts_.assign(ring_.node_count(), 0);
  last_visit_.assign(ring_.node_count(), 0);
  visited_.assign(ring_.node_count(), 0);

  const auto k = static_cast<std::uint32_t>(placements.size());
  node_.reserve(k);
  dir_.reserve(k);
  right_cw_.reserve(k);
  moved_.assign(k, 0);
  kstates_.resize(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    PEF_CHECK(ring_.is_valid_node(placements[i].node));
    node_.push_back(placements[i].node);
    dir_.push_back(static_cast<std::uint8_t>(LocalDirection::kLeft));
    right_cw_.push_back(placements[i].chirality.right_is_clockwise() ? 1 : 0);
    init_kernel_state(kernel_, static_cast<RobotId>(i), kstates_[i]);
    if (++occ_[placements[i].node] == 2) ++multi_nodes_;
  }

  observe_boundary(0);
  if (options_.record_trace) {
    trace_ = std::make_unique<Trace>(ring_, snapshot());
  }
}

Phase Engine::phase_of(RobotId r) const {
  PEF_CHECK_MSG(model_ == ExecutionModel::kAsync,
                "phase_of() is only available on ASYNC engines");
  return phases_[r];
}

Adversary& Engine::adversary() {
  PEF_CHECK_MSG(model_ == ExecutionModel::kFsync,
                "adversary() is only available on FSYNC engines");
  return *adversary_;
}

Configuration Engine::snapshot() const {
  std::vector<RobotSnapshot> snaps;
  snaps.reserve(node_.size());
  for (std::size_t i = 0; i < node_.size(); ++i) {
    RobotSnapshot s;
    s.node = node_[i];
    s.dir = static_cast<LocalDirection>(dir_[i]);
    s.chirality = Chirality(right_cw_[i] != 0);
    snaps.push_back(std::move(s));
  }
  return Configuration(ring_, std::move(snaps));
}

void Engine::observe_boundary(Time t) {
  const std::uint32_t n = ring_.node_count();
  for (const NodeId u : node_) {
    ++visit_counts_[u];
    if (visited_[u]) {
      const Time gap = t - last_visit_[u];
      max_closed_gap_ = std::max(max_closed_gap_, gap);
    } else {
      visited_[u] = 1;
      if (++stats_.visited_node_count == n && !stats_.cover_time) {
        stats_.cover_time = t;
      }
    }
    last_visit_[u] = t;
  }
  if (multi_nodes_ > 0) {
    ++stats_.tower_rounds;
    if (!prev_had_tower_) ++stats_.tower_formations;
    prev_had_tower_ = true;
  } else {
    prev_had_tower_ = false;
  }
}

Engine::RobotFrame Engine::frame_of(RobotId i) const {
  const NodeId u = node_[i];
  const bool dir_right = dir_[i] != 0;
  // to_global(dir): right == right_is_clockwise ? cw : ccw.
  const bool ahead_cw = dir_right == (right_cw_[i] != 0);
  const EdgeId edge_cw = u;
  const EdgeId edge_ccw = u == 0 ? ring_.node_count() - 1 : u - 1;
  return {u, ahead_cw, ahead_cw ? edge_cw : edge_ccw,
          ahead_cw ? edge_ccw : edge_cw};
}

View Engine::look(const RobotFrame& frame) const {
  View view;
  view.exists_edge_ahead = edges_.contains_unchecked(frame.ahead);
  view.exists_edge_behind = edges_.contains_unchecked(frame.behind);
  view.other_robots_on_node = occ_[frame.node] > 1;
  return view;
}

bool Engine::apply_move(RobotId i, bool ahead_cw, EdgeId pointed) {
  if (!edges_.contains_unchecked(pointed)) return false;
  const std::uint32_t n = ring_.node_count();
  const NodeId u = node_[i];
  const NodeId to =
      ahead_cw ? (u + 1 == n ? 0 : u + 1) : (u == 0 ? n - 1 : u - 1);
  if (--occ_[u] == 1) --multi_nodes_;
  if (++occ_[to] == 2) ++multi_nodes_;
  node_[i] = to;
  ++stats_.total_moves;
  return true;
}

void Engine::step() {
  switch (model_) {
    case ExecutionModel::kFsync:
      step_fsync();
      break;
    case ExecutionModel::kSsync:
      step_ssync();
      break;
    case ExecutionModel::kAsync:
      step_async();
      break;
  }
  ++now_;
  stats_.rounds = now_;
  observe_boundary(now_);
}

// The KernelId is a template argument, so each loop instantiation inlines
// the kernel body directly.
template <KernelId Id>
void Engine::look_compute_all() {
  const auto k = static_cast<std::uint32_t>(node_.size());
  for (std::uint32_t i = 0; i < k; ++i) {
    const View view = look(frame_of(i));
    LocalDirection dir = static_cast<LocalDirection>(dir_[i]);
    kernel_compute<Id>(kernel_, view, dir, kstates_[i]);
    dir_[i] = static_cast<std::uint8_t>(dir);
  }
}

template <KernelId Id>
void Engine::look_compute_list(const std::vector<std::uint32_t>& idx) {
  for (const std::uint32_t i : idx) {
    const View view = look(frame_of(i));
    LocalDirection dir = static_cast<LocalDirection>(dir_[i]);
    kernel_compute<Id>(kernel_, view, dir, kstates_[i]);
    dir_[i] = static_cast<std::uint8_t>(dir);
  }
}

template <KernelId Id>
void Engine::compute_pending_list(const std::vector<std::uint32_t>& idx) {
  for (const std::uint32_t i : idx) {
    LocalDirection dir = static_cast<LocalDirection>(dir_[i]);
    kernel_compute<Id>(kernel_, pending_views_[i], dir, kstates_[i]);
    dir_[i] = static_cast<std::uint8_t>(dir);
    phases_[i] = Phase::kMove;
  }
}

void Engine::step_fsync() {
  const auto k = static_cast<std::uint32_t>(node_.size());

  // Adversary: E_t.  Oblivious schedules refill the scratch set in place.
  if (schedule_ != nullptr) {
    schedule_->edges_into(now_, edges_);
  } else {
    edges_ = adversary_->choose_edges(now_, *gamma_mirror_);
    PEF_CHECK(edges_.edge_count() == ring_.edge_count());
  }

  RoundRecord record;
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    record.time = now_;
    record.edges = edges_;
    record.robots.resize(k);
    // The Look phase reads the start-of-round configuration, so every
    // view's multiplicity bit is reconstructable here, before any robot
    // acts: trace bookkeeping stays out of the per-kernel loop.
    for (std::uint32_t i = 0; i < k; ++i) {
      record.robots[i].node_before = node_[i];
      record.robots[i].dir_before = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].saw_other_robots = occ_[node_[i]] > 1;
    }
  }

  // Look + Compute.  The Look phase reads only node_/occ_/edges_, none of
  // which change before Move, so fusing the two phases preserves the
  // synchronous semantics; Compute writes only the robot's own dir/state.
  with_kernel_id(kernel_.id,
                 [&]<KernelId Id>() { look_compute_all<Id>(); });

  // Move: cross the pointed edge iff present in E_t (same set all round).
  // Sequential in-place update is safe: Look already happened for everyone.
  for (std::uint32_t i = 0; i < k; ++i) {
    const RobotFrame frame = frame_of(i);
    const bool moved = apply_move(i, frame.ahead_cw, frame.ahead);
    moved_[i] = moved ? 1 : 0;
    if (tracing) {
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].moved = moved;
      record.robots[i].node_after = node_[i];
    }
  }

  // Keep the adaptive adversary's gamma mirror current (it must equal the
  // configuration at the start of the next round).
  if (gamma_mirror_) {
    for (std::uint32_t i = 0; i < k; ++i) {
      gamma_mirror_->set_robot_dir(i, static_cast<LocalDirection>(dir_[i]));
      if (moved_[i]) gamma_mirror_->relocate_robot(i, node_[i]);
    }
  }

  if (tracing) trace_->append(std::move(record));
}

void Engine::step_ssync() {
  const auto k = static_cast<std::uint32_t>(node_.size());

  activation_->activate(now_, *gamma_mirror_, mask_);
  PEF_CHECK(mask_.size() == k);
  ssync_adversary_->choose_edges_into(now_, *gamma_mirror_, mask_, edges_);
  PEF_CHECK(edges_.edge_count() == ring_.edge_count());

  // Compact the activation mask once, so the Look+Compute and Move loops
  // iterate dense indices instead of re-testing (and mispredicting) the
  // mask per robot per pass.
  active_list_.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (mask_[i] != 0) active_list_.push_back(i);
  }

  RoundRecord record;
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    record.time = now_;
    record.edges = edges_;
    record.robots.resize(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      record.robots[i].node_before = node_[i];
      record.robots[i].dir_before = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].node_after = node_[i];
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
    }
    // Activated robots' Looks all read the start-of-round occupancy.
    for (const std::uint32_t i : active_list_) {
      record.robots[i].saw_other_robots = occ_[node_[i]] > 1;
    }
  }

  // Look + Compute for the activated subset.  As in FSYNC, every activated
  // robot's Look reads the start-of-round configuration (occ_/node_ are
  // untouched until the Move pass below).
  with_kernel_id(kernel_.id, [&]<KernelId Id>() {
    look_compute_list<Id>(active_list_);
  });

  // The policies and adversaries only read the gamma mirror at the next
  // round boundary, so the per-robot dir updates batch up fine here.
  for (const std::uint32_t i : active_list_) {
    const auto dir = static_cast<LocalDirection>(dir_[i]);
    gamma_mirror_->set_robot_dir(i, dir);
    if (tracing) record.robots[i].dir_after = dir;
  }

  // Move for the activated subset.
  for (const std::uint32_t i : active_list_) {
    const RobotFrame frame = frame_of(i);
    if (apply_move(i, frame.ahead_cw, frame.ahead)) {
      gamma_mirror_->relocate_robot(i, node_[i]);
      if (tracing) record.robots[i].moved = true;
    }
    if (tracing) record.robots[i].node_after = node_[i];
  }

  if (tracing) trace_->append(std::move(record));
}

void Engine::step_async() {
  const auto k = static_cast<std::uint32_t>(node_.size());

  phase_scheduler_->advance(now_, *gamma_mirror_, phases_, mask_);
  PEF_CHECK(mask_.size() == k);

  // The adversary sees which robots fire their Move phase this tick (the
  // only phase that interacts with edges).  One pass splits the advancing
  // set into its three per-phase index lists.
  moving_.assign(k, 0);
  look_list_.clear();
  compute_list_.clear();
  move_list_.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (mask_[i] == 0) continue;
    switch (phases_[i]) {
      case Phase::kLook:
        look_list_.push_back(i);
        break;
      case Phase::kCompute:
        compute_list_.push_back(i);
        break;
      case Phase::kMove:
        moving_[i] = 1;
        move_list_.push_back(i);
        break;
    }
  }
  ssync_adversary_->choose_edges_into(now_, *gamma_mirror_, moving_, edges_);
  PEF_CHECK(edges_.edge_count() == ring_.edge_count());

  RoundRecord record;
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    record.time = now_;
    record.edges = edges_;
    record.robots.resize(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      record.robots[i].node_before = node_[i];
      record.robots[i].dir_before = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].node_after = node_[i];
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
    }
  }

  // Pass 1a: Look phases.  No robot has moved yet this tick, so occ_ is
  // exactly the tick-start occupancy every Look must see; Move phases
  // (already split into move_list_) run in pass 2.  The snapshot may be
  // stale by the time Compute / Move execute — that is the model.
  for (const std::uint32_t i : look_list_) {
    const View view = look(frame_of(i));
    pending_views_[i] = view;
    if (tracing) record.robots[i].saw_other_robots = view.other_robots_on_node;
    phases_[i] = Phase::kCompute;
  }

  // Pass 1b: Compute phases — the only ASYNC work that touches the
  // algorithm, and therefore the only templated loop.
  with_kernel_id(kernel_.id, [&]<KernelId Id>() {
    compute_pending_list<Id>(compute_list_);
  });
  for (const std::uint32_t i : compute_list_) {
    const auto dir = static_cast<LocalDirection>(dir_[i]);
    gamma_mirror_->set_robot_dir(i, dir);
    if (tracing) record.robots[i].dir_after = dir;
  }

  // Pass 2: Move phases.
  for (const std::uint32_t i : move_list_) {
    const RobotFrame frame = frame_of(i);
    if (apply_move(i, frame.ahead_cw, frame.ahead)) {
      gamma_mirror_->relocate_robot(i, node_[i]);
      if (tracing) record.robots[i].moved = true;
    }
    if (tracing) record.robots[i].node_after = node_[i];
    phases_[i] = Phase::kLook;
  }

  if (tracing) trace_->append(std::move(record));
}

std::optional<EnvLattice> Engine::cycle_lattice() const {
  // A trace must record each round, so tracing never fast-forwards; the
  // rest is env_lattice's rule.
  if (options_.record_trace) return std::nullopt;
  const EdgeSchedule* schedule = schedule_;  // FSYNC: non-null iff oblivious
  ActivationBatchKind activation = ActivationBatchKind::kFull;
  if (model_ != ExecutionModel::kFsync) {
    schedule = ssync_adversary_->oblivious_schedule();
    activation = model_ == ExecutionModel::kSsync
                     ? activation_->batch_kind()
                     : phase_scheduler_->batch_kind();
  }
  return env_lattice(schedule, activation, robot_count());
}

template <typename Sink>
bool Engine::state_words(Sink&& sink) const {
  const std::uint32_t k = robot_count();
  const bool rng_state = kernel_.id == KernelId::kRandomWalk;
  for (std::uint32_t i = 0; i < k; ++i) {
    const KernelState& ks = kstates_[i];
    if (!sink((static_cast<std::uint64_t>(node_[i]) << 32) |
              (static_cast<std::uint64_t>(dir_[i]) << 1) | right_cw_[i]) ||
        !sink(ks.counter) || !sink(ks.has_moved)) {
      return false;
    }
    if (rng_state) {
      for (const std::uint64_t word : ks.rng.state()) {
        if (!sink(word)) return false;
      }
    }
  }
  if (model_ == ExecutionModel::kAsync) {
    // Phase machines + pending Look views.  Views of robots past their
    // Compute are stale-but-deterministic, so including them only tightens
    // the equality test (false negatives delay detection; never wrong).
    for (std::uint32_t i = 0; i < k; ++i) {
      const View& view = pending_views_[i];
      if (!sink((static_cast<std::uint64_t>(phases_[i]) << 3) |
                (static_cast<std::uint64_t>(view.exists_edge_ahead) << 2) |
                (static_cast<std::uint64_t>(view.exists_edge_behind) << 1) |
                static_cast<std::uint64_t>(view.other_robots_on_node))) {
        return false;
      }
    }
  }
  return true;
}

void Engine::run(Time rounds) {
  const Time target = now_ + rounds;
  if (options_.fast_forward) {
    if (const std::optional<EnvLattice> lattice = cycle_lattice()) {
      cycle_.start(*lattice, now_);
    }
  }
  while (now_ < target) {
    if (now_ == cycle_.next()) {
      cycle_.observe(
          now_, target, stats_, ring_.node_count(),
          [this](NodeId u) { return visit_counts_[u]; },
          [this](auto&& sink) { return state_words(sink); });
      if (cycle_.stage() == CycleTracker::Stage::kArmed) {
        const Time skip = cycle_.skip(now_, target, stats_);
        for (NodeId u = 0; u < ring_.node_count(); ++u) {
          const std::uint64_t added = cycle_.visits_added(u);
          if (added == 0) continue;
          visit_counts_[u] += added;
          // The node's visit pattern is period-periodic: its true last
          // visit in the skipped region sits exactly `skip` after the one
          // just recorded.
          last_visit_[u] += skip;
        }
        // The state now equals the state `skip` rounds later, and skip is
        // a multiple of the environment period, so replaying the tail at
        // the advanced clock reproduces the true final rounds bit-for-bit
        // (visited / cover_time are monotone and already settled within
        // the measured period).
        now_ += skip;
        stats_.rounds = now_;
        continue;
      }
    }
    step();
  }
}

CoverageReport Engine::coverage_report(Time suffix_window) const {
  const std::uint32_t n = ring_.node_count();
  CoverageReport report;
  report.horizon = now_;
  report.suffix_window = suffix_window == 0 ? now_ / 4 + 1 : suffix_window;
  report.visit_counts = visit_counts_;
  report.visited_node_count = stats_.visited_node_count;
  report.cover_time = stats_.cover_time;
  report.max_closed_gap = max_closed_gap_;

  const Time suffix_start =
      now_ >= report.suffix_window ? now_ - report.suffix_window : 0;
  for (NodeId u = 0; u < n; ++u) {
    const Time open_gap = visited_[u] ? now_ - last_visit_[u] : now_;
    report.max_revisit_gap =
        std::max({report.max_revisit_gap, report.max_closed_gap, open_gap});
    if (visited_[u] && last_visit_[u] >= suffix_start) {
      ++report.nodes_visited_in_suffix;
    }
  }
  return report;
}

}  // namespace pef
