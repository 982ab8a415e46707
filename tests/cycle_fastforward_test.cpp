// Cycle-detection fast-forward (engine/cycle.hpp): every test here is
// differential — the fast-forwarded run must reproduce the plain run's
// statistics EXACTLY, not approximately — plus edge cases the sweep grids
// rarely hit: period-1 fixpoints, cycles entered at round 0, tower-forming
// configurations, chain topology, horizons landing mid-period, SSYNC and
// ASYNC round-robin lattices, and near-miss samples that equal the Brent
// anchor in every word but one.
#include "engine/cycle.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "dynamic_graph/chain.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "scheduler/async.hpp"
#include "scheduler/simulator.hpp"
#include "scheduler/ssync.hpp"

namespace pef {
namespace {

constexpr Time kHorizon = 100003;  // lands mid-period for any period > 1

enum class Topo { kRing, kChain };

SchedulePtr make_schedule(const Ring& ring, Topo topo, bool rotating) {
  SchedulePtr base =
      rotating ? std::make_shared<PeriodicSchedule>(
                     PeriodicSchedule::rotating(ring, 3, 2))
               : SchedulePtr(std::make_shared<StaticSchedule>(ring));
  return topo == Topo::kChain ? ChainSchedule::cut_last(base) : base;
}

Engine make_engine(const Ring& ring, const std::string& algorithm, Topo topo,
                   bool rotating, std::uint32_t robots,
                   const EngineOptions& options) {
  return Engine(ring, make_algorithm(algorithm, 7),
                std::make_unique<ObliviousAdversary>(
                    make_schedule(ring, topo, rotating)),
                spread_placements(ring, robots), options);
}

void expect_same(const Engine& ff, const Engine& plain) {
  const EngineStats& a = ff.stats();
  const EngineStats& b = plain.stats();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.tower_rounds, b.tower_rounds);
  EXPECT_EQ(a.tower_formations, b.tower_formations);
  EXPECT_EQ(a.visited_node_count, b.visited_node_count);
  EXPECT_EQ(a.cover_time, b.cover_time);
  const CoverageReport ca = ff.coverage_report();
  const CoverageReport cb = plain.coverage_report();
  EXPECT_EQ(ca.visit_counts, cb.visit_counts);
  EXPECT_EQ(ca.max_revisit_gap, cb.max_revisit_gap);
  EXPECT_EQ(ca.max_closed_gap, cb.max_closed_gap);
  EXPECT_EQ(ff.robot_node(0), plain.robot_node(0));
}

/// Runs the scenario twice (fast-forward on/off) at several consecutive
/// horizons — so whatever the detected period is, at least one horizon
/// lands strictly mid-period — and pins every statistic.
void run_differential(const std::string& algorithm, Topo topo, bool rotating,
                      std::uint32_t nodes, std::uint32_t robots,
                      bool expect_engaged) {
  SCOPED_TRACE(algorithm + (topo == Topo::kChain ? " chain" : " ring") +
               (rotating ? " rotating" : " static") +
               " n=" + std::to_string(nodes) + " k=" + std::to_string(robots));
  const Ring ring(nodes);
  for (Time horizon = kHorizon; horizon < kHorizon + 3; ++horizon) {
    SCOPED_TRACE("horizon " + std::to_string(horizon));
    EngineOptions ff_options;
    ff_options.fast_forward = true;
    Engine ff = make_engine(ring, algorithm, topo, rotating, robots,
                            ff_options);
    Engine plain = make_engine(ring, algorithm, topo, rotating, robots,
                               EngineOptions{});
    ff.run(horizon);
    plain.run(horizon);
    expect_same(ff, plain);
    EXPECT_EQ(ff.fast_forwarded(), expect_engaged);
    if (expect_engaged) {
      EXPECT_LT(ff.rounds_simulated(), horizon);
      EXPECT_GT(ff.detected_period(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Tracker unit tests on synthetic word streams (lattice period 1, one
// sample per round, a horizon far enough away that a cycle always engages).

struct Found {
  Time at = 0;      // the sample at which the tracker verified a cycle
  Time period = 0;  // 0: it never did
};

Found feed(const std::function<std::vector<std::uint64_t>(Time)>& stream,
           Time samples) {
  CycleTracker tracker;
  tracker.start(EnvLattice{1, 0}, 0);
  for (Time t = 0; t < samples; ++t) {
    EXPECT_EQ(tracker.next(), t);
    const std::vector<std::uint64_t> state = stream(t);
    tracker.observe(
        t, Time{1} << 40, EngineStats{}, 0,
        [](std::uint32_t) { return std::uint64_t{0}; },
        [&](auto&& sink) {
          for (const std::uint64_t word : state) {
            if (!sink(word)) return false;
          }
          return true;
        });
    if (tracker.stage() != CycleTracker::Stage::kSearch) {
      EXPECT_EQ(tracker.stage(), CycleTracker::Stage::kMeasure);
      return {t, tracker.period()};
    }
  }
  return {};
}

TEST(CycleTrackerTest, ConstantStreamIsAPeriodOneFixpoint) {
  const Found found = feed([](Time) {
    return std::vector<std::uint64_t>{1, 2, 3};
  }, 10);
  EXPECT_EQ(found.period, 1u);
  EXPECT_EQ(found.at, 1u);  // sample 0 anchors, sample 1 matches
}

TEST(CycleTrackerTest, FindsMinimalPeriodAfterAPreperiod) {
  // Stream: 5 transient states, then a cycle of length 3.  Brent's
  // re-anchoring must land an anchor inside the cycle and report 3.
  const Found found = feed([](Time t) {
    return std::vector<std::uint64_t>{t < 5 ? t : 5 + (t - 5) % 3};
  }, 200);
  EXPECT_EQ(found.period, 3u);
}

TEST(CycleTrackerTest, NearMissAnchorNeverMatchesEarly) {
  // A 6-cycle of 5-word states: the base state B, then B with word 0
  // changed, B with word 1 changed, ..., B with word 4 changed.  Brent
  // anchors at samples 0, 1, 3 and 7; the phase puts B at sample 7, so
  // samples 8..12 each equal the anchor in every word but one (a different
  // word each time, first through last) and sample 13 is the true
  // recurrence.  Earlier anchors are at most 4 samples old when replaced,
  // so no earlier match exists either.
  constexpr std::uint64_t kWords = 5;
  const auto stream = [](Time t) {
    std::vector<std::uint64_t> state = {10, 20, 30, 40, 50};
    const Time index = (t + 5) % (kWords + 1);  // B at t = 7, 13, ...
    if (index > 0) state[index - 1] ^= 1;
    return state;
  };
  const Found found = feed(stream, 200);
  EXPECT_EQ(found.period, kWords + 1);
  EXPECT_EQ(found.at, 13u);
  EXPECT_EQ(stream(found.at), stream(found.at - found.period));
  for (Time t = 8; t < 13; ++t) {
    std::uint64_t differing = 0;
    for (std::uint64_t w = 0; w < kWords; ++w) {
      differing += stream(t)[w] != stream(7)[w] ? 1 : 0;
    }
    EXPECT_EQ(differing, 1u) << "sample " << t;
  }
}

// ---------------------------------------------------------------------------
// Solo engine differentials.

TEST(CycleFastForwardTest, PeriodOneFixpointOnStaticChain) {
  // keep-direction robots sharing a chirality pile up against the chain's
  // cut edge and freeze: the execution reaches a true fixpoint.
  const Ring ring(7);
  EngineOptions options;
  options.fast_forward = true;
  Engine ff = make_engine(ring, "keep-direction", Topo::kChain,
                          /*rotating=*/false, 3, options);
  ff.run(kHorizon);
  EXPECT_TRUE(ff.fast_forwarded());
  EXPECT_EQ(ff.detected_period(), 1u);
  Engine plain = make_engine(ring, "keep-direction", Topo::kChain,
                             /*rotating=*/false, 3, EngineOptions{});
  plain.run(kHorizon);
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, CycleEnteredAtRoundZero) {
  // A lone keep-direction robot on a static ring rotates from the very
  // first round: no preperiod, minimal period n.
  const Ring ring(6);
  EngineOptions options;
  options.fast_forward = true;
  Engine ff = make_engine(ring, "keep-direction", Topo::kRing,
                          /*rotating=*/false, 1, options);
  ff.run(kHorizon);
  EXPECT_TRUE(ff.fast_forwarded());
  EXPECT_EQ(ff.detected_period(), 6u);
  Engine plain = make_engine(ring, "keep-direction", Topo::kRing,
                             /*rotating=*/false, 1, EngineOptions{});
  plain.run(kHorizon);
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, RegistryAlgorithmsOnRotatingRing) {
  for (const char* algorithm : {"pef3+", "pef2", "keep-direction", "bounce",
                                "oscillating"}) {
    const std::uint32_t robots = std::string(algorithm) == "pef2" ? 2 : 3;
    run_differential(algorithm, Topo::kRing, /*rotating=*/true, 8, robots,
                     /*expect_engaged=*/true);
  }
}

TEST(CycleFastForwardTest, TowerFormingConfiguration) {
  // Towers form when the rotating missing edge squeezes robots together;
  // the extrapolated tower_rounds / tower_formations must match exactly.
  const Ring ring(5);
  EngineOptions options;
  options.fast_forward = true;
  Engine ff = make_engine(ring, "pef3+", Topo::kRing, /*rotating=*/true, 3,
                          options);
  Engine plain = make_engine(ring, "pef3+", Topo::kRing, /*rotating=*/true, 3,
                             EngineOptions{});
  ff.run(kHorizon);
  plain.run(kHorizon);
  ASSERT_GT(plain.stats().tower_rounds, 0u)
      << "scenario no longer forms towers; pick one that does";
  EXPECT_TRUE(ff.fast_forwarded());
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, ChainTopology) {
  run_differential("pef3+", Topo::kChain, /*rotating=*/true, 8, 3,
                   /*expect_engaged=*/true);
}

TEST(CycleFastForwardTest, RandomWalkNeverDetectsButStaysCorrect) {
  // Xoshiro streams never cycle: the detector must never fire, and the run
  // must fall back to plain stepping with identical results.
  run_differential("random-walk", Topo::kRing, /*rotating=*/true, 6, 2,
                   /*expect_engaged=*/false);
}

/// pef3+ (seed `seed`) on the rotating(3,2) ring under SSYNC round-robin
/// activation or ASYNC round-robin phases.
Engine make_round_robin_engine(ExecutionModel model, const Ring& ring,
                               std::uint64_t seed,
                               const std::vector<RobotPlacement>& placements,
                               const EngineOptions& options) {
  auto adversary = std::make_unique<SsyncObliviousAdversary>(
      make_schedule(ring, Topo::kRing, true));
  if (model == ExecutionModel::kSsync) {
    return Engine(ring, make_algorithm("pef3+", seed), std::move(adversary),
                  std::make_unique<RoundRobinActivation>(), placements,
                  options);
  }
  return Engine(ring, make_algorithm("pef3+", seed), std::move(adversary),
                std::make_unique<RoundRobinPhases>(), placements, options);
}

TEST(CycleFastForwardTest, SsyncRoundRobinActivation) {
  // Round-robin activation multiplies the environment period by k; the
  // aligned sampling must still find the cycle.
  const Ring ring(6);
  for (Time horizon = kHorizon; horizon < kHorizon + 3; ++horizon) {
    EngineOptions options;
    options.fast_forward = true;
    Engine ff(ring, make_algorithm("pef3+", 7),
              std::make_unique<SsyncObliviousAdversary>(
                  make_schedule(ring, Topo::kRing, true)),
              std::make_unique<RoundRobinActivation>(),
              spread_placements(ring, 3), options);
    Engine plain(ring, make_algorithm("pef3+", 7),
                 std::make_unique<SsyncObliviousAdversary>(
                     make_schedule(ring, Topo::kRing, true)),
                 std::make_unique<RoundRobinActivation>(),
                 spread_placements(ring, 3), EngineOptions{});
    ff.run(horizon);
    plain.run(horizon);
    EXPECT_TRUE(ff.fast_forwarded());
    EXPECT_EQ(ff.detected_period() % 3, 0u);  // multiple of the env period
    expect_same(ff, plain);
  }
}

TEST(CycleFastForwardTest, AsyncRoundRobinPhases) {
  // Round-robin phases put ASYNC on the same k-round lattice; the compared
  // state now includes every robot's phase machine and pending view.
  const Ring ring(6);
  for (Time horizon = kHorizon; horizon < kHorizon + 3; ++horizon) {
    SCOPED_TRACE("horizon " + std::to_string(horizon));
    EngineOptions options;
    options.fast_forward = true;
    Engine ff = make_round_robin_engine(ExecutionModel::kAsync, ring, 7,
                                        spread_placements(ring, 3), options);
    Engine plain =
        make_round_robin_engine(ExecutionModel::kAsync, ring, 7,
                                spread_placements(ring, 3), EngineOptions{});
    ff.run(horizon);
    plain.run(horizon);
    EXPECT_TRUE(ff.fast_forwarded());
    EXPECT_EQ(ff.detected_period() % 3, 0u);  // multiple of the env period
    expect_same(ff, plain);
  }
}

TEST(CycleFastForwardTest, AsyncPhaseMachinesAreComparedState) {
  // A lone keep-direction robot on a static ring under round-robin phases
  // holds its node for a Look and a Compute tick before each Move, so its
  // pose alone repeats after one tick; only the phase machine tells those
  // ticks apart.  The true period is 3 ticks per node.
  const Ring ring(6);
  const auto build = [&](bool fast_forward) {
    EngineOptions options;
    options.fast_forward = fast_forward;
    return Engine(ring, make_algorithm("keep-direction", 7),
                  std::make_unique<SsyncObliviousAdversary>(
                      std::make_shared<StaticSchedule>(ring)),
                  std::make_unique<RoundRobinPhases>(),
                  spread_placements(ring, 1), options);
  };
  Engine ff = build(true);
  Engine plain = build(false);
  ff.run(kHorizon);
  plain.run(kHorizon);
  EXPECT_TRUE(ff.fast_forwarded());
  EXPECT_EQ(ff.detected_period(), 18u);
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, BernoulliScheduleRefusesEligibility) {
  // A stochastic schedule must silently run plain — bit-identical, no
  // fast-forward telemetry.
  const Ring ring(6);
  const auto build = [&](bool ff) {
    EngineOptions options;
    options.fast_forward = ff;
    return Engine(ring, make_algorithm("pef3+", 7),
                  std::make_unique<ObliviousAdversary>(
                      std::make_shared<BernoulliSchedule>(ring, 0.5, 99)),
                  spread_placements(ring, 3), options);
  };
  Engine ff = build(true);
  Engine plain = build(false);
  ff.run(5000);
  plain.run(5000);
  EXPECT_FALSE(ff.fast_forwarded());
  expect_same(ff, plain);
}

// ---------------------------------------------------------------------------
// Batch engine differentials: lanes detect independently, retire through
// ragged-horizon compaction, and must still match solo PLAIN engines.

void expect_same_lane(const BatchEngine& batch, std::uint32_t b,
                      const Engine& solo) {
  const EngineStats& a = batch.stats(b);
  const EngineStats& s = solo.stats();
  EXPECT_EQ(a.rounds, s.rounds);
  EXPECT_EQ(a.total_moves, s.total_moves);
  EXPECT_EQ(a.tower_rounds, s.tower_rounds);
  EXPECT_EQ(a.tower_formations, s.tower_formations);
  EXPECT_EQ(a.visited_node_count, s.visited_node_count);
  EXPECT_EQ(a.cover_time, s.cover_time);
  const CoverageReport ca = batch.coverage_report(b);
  const CoverageReport cs = solo.coverage_report();
  EXPECT_EQ(ca.visit_counts, cs.visit_counts);
  EXPECT_EQ(ca.max_revisit_gap, cs.max_revisit_gap);
  EXPECT_EQ(ca.max_closed_gap, cs.max_closed_gap);
  EXPECT_EQ(ca.nodes_visited_in_suffix, cs.nodes_visited_in_suffix);
}

TEST(CycleFastForwardBatchTest, RaggedHorizonsMatchSoloPlainEngines) {
  constexpr std::uint32_t kBatch = 8;
  const Ring ring(7);
  const auto horizon_of = [](std::uint32_t b) {
    return kHorizon + 61 * (b % 5);
  };
  for (const char* algorithm : {"pef3+", "oscillating"}) {
    SCOPED_TRACE(algorithm);
    std::vector<BatchReplica> replicas(kBatch);
    for (std::uint32_t b = 0; b < kBatch; ++b) {
      BatchReplica& replica = replicas[b];
      replica.algorithm = make_algorithm(algorithm, b + 1);
      replica.adversary = std::make_unique<ObliviousAdversary>(
          make_schedule(ring, Topo::kRing, true));
      replica.placements = random_placements(ring, 3, b + 1);
      replica.horizon = horizon_of(b);
    }
    BatchEngineOptions options;
    options.fast_forward = true;
    BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas),
                      options);
    batch.run_all();

    for (std::uint32_t b = 0; b < kBatch; ++b) {
      SCOPED_TRACE("replica " + std::to_string(b));
      Engine solo(ring, make_algorithm(algorithm, b + 1),
                  std::make_unique<ObliviousAdversary>(
                      make_schedule(ring, Topo::kRing, true)),
                  random_placements(ring, 3, b + 1), EngineOptions{});
      solo.run(horizon_of(b));
      EXPECT_TRUE(batch.fast_forwarded(b));
      EXPECT_LT(batch.rounds_simulated(b), horizon_of(b));
      expect_same_lane(batch, b, solo);
    }
  }
}

TEST(CycleFastForwardBatchTest, RoundRobinSsyncAndAsyncLanes) {
  // The batch twin of SsyncRoundRobinActivation and AsyncRoundRobinPhases,
  // at ragged horizons: lanes sample the lattice of
  // the devirtualized round-robin kernels, and ASYNC lanes compare their
  // one-hot phase planes and pending views against the anchor.
  constexpr std::uint32_t kBatch = 8;
  const Ring ring(6);
  const auto horizon_of = [](std::uint32_t b) {
    return kHorizon + 61 * (b % 5);
  };
  for (const ExecutionModel model :
       {ExecutionModel::kSsync, ExecutionModel::kAsync}) {
    SCOPED_TRACE(to_string(model));
    std::vector<BatchReplica> replicas(kBatch);
    for (std::uint32_t b = 0; b < kBatch; ++b) {
      BatchReplica& replica = replicas[b];
      replica.algorithm = make_algorithm("pef3+", b + 1);
      replica.ssync_adversary = std::make_unique<SsyncObliviousAdversary>(
          make_schedule(ring, Topo::kRing, true));
      if (model == ExecutionModel::kSsync) {
        replica.activation = std::make_unique<RoundRobinActivation>();
      } else {
        replica.phases = std::make_unique<RoundRobinPhases>();
      }
      replica.placements = random_placements(ring, 3, b + 1);
      replica.horizon = horizon_of(b);
    }
    BatchEngineOptions options;
    options.fast_forward = true;
    BatchEngine batch(ring, model, std::move(replicas), options);
    batch.run_all();

    for (std::uint32_t b = 0; b < kBatch; ++b) {
      SCOPED_TRACE("replica " + std::to_string(b));
      Engine solo = make_round_robin_engine(
          model, ring, b + 1, random_placements(ring, 3, b + 1),
          EngineOptions{});
      solo.run(horizon_of(b));
      EXPECT_TRUE(batch.fast_forwarded(b));
      EXPECT_LT(batch.rounds_simulated(b), horizon_of(b));
      EXPECT_EQ(batch.detected_period(b) % 3, 0u);
      expect_same_lane(batch, b, solo);
    }
  }
}

TEST(CycleFastForwardBatchTest, AsyncLanesComparePhasePlanes) {
  // The batch twin of AsyncPhaseMachinesAreComparedState: a lane's pose
  // repeats after one tick, its one-hot phase planes do not.
  constexpr std::uint32_t kBatch = 4;
  const Ring ring(6);
  std::vector<BatchReplica> replicas(kBatch);
  for (std::uint32_t b = 0; b < kBatch; ++b) {
    BatchReplica& replica = replicas[b];
    replica.algorithm = make_algorithm("keep-direction", b + 1);
    replica.ssync_adversary = std::make_unique<SsyncObliviousAdversary>(
        std::make_shared<StaticSchedule>(ring));
    replica.phases = std::make_unique<RoundRobinPhases>();
    replica.placements = random_placements(ring, 1, b + 1);
    replica.horizon = kHorizon;
  }
  BatchEngineOptions options;
  options.fast_forward = true;
  BatchEngine batch(ring, ExecutionModel::kAsync, std::move(replicas),
                    options);
  batch.run_all();
  for (std::uint32_t b = 0; b < kBatch; ++b) {
    SCOPED_TRACE("replica " + std::to_string(b));
    Engine solo(ring, make_algorithm("keep-direction", b + 1),
                std::make_unique<SsyncObliviousAdversary>(
                    std::make_shared<StaticSchedule>(ring)),
                std::make_unique<RoundRobinPhases>(),
                random_placements(ring, 1, b + 1), EngineOptions{});
    solo.run(kHorizon);
    EXPECT_TRUE(batch.fast_forwarded(b));
    EXPECT_EQ(batch.detected_period(b), 18u);
    expect_same_lane(batch, b, solo);
  }
}

TEST(CycleFastForwardBatchTest, FourLaneBatchMatchesSoloPlainEngines) {
  constexpr std::uint32_t kBatch = 4;
  const Ring ring(6);
  std::vector<BatchReplica> replicas(kBatch);
  for (std::uint32_t b = 0; b < kBatch; ++b) {
    BatchReplica& replica = replicas[b];
    replica.algorithm = make_algorithm("pef3+", b + 1);
    replica.adversary = std::make_unique<ObliviousAdversary>(
        make_schedule(ring, Topo::kRing, true));
    replica.placements = random_placements(ring, 3, b + 1);
    replica.horizon = kHorizon;
  }
  BatchEngineOptions options;
  options.fast_forward = true;
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas),
                    options);
  batch.run_all();
  for (std::uint32_t b = 0; b < kBatch; ++b) {
    SCOPED_TRACE("replica " + std::to_string(b));
    Engine solo(ring, make_algorithm("pef3+", b + 1),
                std::make_unique<ObliviousAdversary>(
                    make_schedule(ring, Topo::kRing, true)),
                random_placements(ring, 3, b + 1), EngineOptions{});
    solo.run(kHorizon);
    EXPECT_TRUE(batch.fast_forwarded(b));
    EXPECT_EQ(batch.stats(b).total_moves, solo.stats().total_moves);
    EXPECT_EQ(batch.coverage_report(b).visit_counts,
              solo.coverage_report().visit_counts);
    EXPECT_EQ(batch.coverage_report(b).max_revisit_gap,
              solo.coverage_report().max_revisit_gap);
  }
}

}  // namespace
}  // namespace pef
