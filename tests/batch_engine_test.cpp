// Differential tests for BatchEngine: a batch of B replicas must be
// BIT-IDENTICAL to B independent Engine runs — the configuration and stats
// after every round, then final stats and coverage — across every registry
// kernel, every execution model, adversary families (oblivious and
// adaptive) and ragged per-replica horizons (early termination compacts
// lanes out mid-run; the survivors must not notice).  The batch is driven
// through the round functions production runs: step() round by round, and
// the tiled run_all() epochs.
#include "engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/registry.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/spec.hpp"
#include "dynamic_graph/schedules.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

constexpr std::uint32_t kBatch = 10;  // one replica per seed
constexpr std::uint32_t kNodes = 9;
constexpr std::uint32_t kRobots = 3;
constexpr Time kBaseHorizon = 160;

/// Ragged horizons: replicas retire at different rounds, exercising the
/// lane-compaction path on every batch.
Time horizon_of(std::uint32_t replica) {
  return kBaseHorizon + 37 * (replica % 4);
}

/// Nodes, directions and chiralities of every robot (the state a round
/// reads and writes; kernel memory shows up in the next rounds' moves).
void expect_same_configuration(const Configuration& actual,
                               const Configuration& expected, Time t) {
  ASSERT_EQ(actual.robot_count(), expected.robot_count());
  for (RobotId r = 0; r < expected.robot_count(); ++r) {
    const RobotSnapshot& a = actual.robot(r);
    const RobotSnapshot& e = expected.robot(r);
    ASSERT_EQ(a.node, e.node) << "round " << t << " robot " << r;
    ASSERT_EQ(a.dir, e.dir) << "round " << t << " robot " << r;
    ASSERT_EQ(a.chirality.right_is_clockwise(),
              e.chirality.right_is_clockwise())
        << "round " << t << " robot " << r;
  }
}

void expect_same_stats(const EngineStats& actual, const EngineStats& expected) {
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.total_moves, expected.total_moves);
  EXPECT_EQ(actual.tower_rounds, expected.tower_rounds);
  EXPECT_EQ(actual.tower_formations, expected.tower_formations);
  EXPECT_EQ(actual.visited_node_count, expected.visited_node_count);
  EXPECT_EQ(actual.cover_time, expected.cover_time);
}

void expect_same_coverage(const CoverageReport& actual,
                          const CoverageReport& expected) {
  EXPECT_EQ(actual.visit_counts, expected.visit_counts);
  EXPECT_EQ(actual.cover_time, expected.cover_time);
  EXPECT_EQ(actual.visited_node_count, expected.visited_node_count);
  EXPECT_EQ(actual.max_revisit_gap, expected.max_revisit_gap);
  EXPECT_EQ(actual.max_closed_gap, expected.max_closed_gap);
  EXPECT_EQ(actual.nodes_visited_in_suffix, expected.nodes_visited_in_suffix);
  EXPECT_EQ(actual.suffix_window, expected.suffix_window);
  EXPECT_EQ(actual.horizon, expected.horizon);
}

/// Runs one (algorithm, model, scenario) batch against its B solo Engine
/// twins.  The batch and the solo Engines step together: after every round
/// each live replica's configuration and stats must match its twin's, and
/// at retirement its coverage too.  A second batch of the same replicas
/// then runs through run_all() and must land on the same final stats and
/// coverage.  `make_replica` and `make_engine` must construct the same
/// scenario from the same seed (fresh objects each call).  The ring has
/// `nodes` nodes and the batch `batch` replicas.
void run_differential(
    const std::string& label,
    const std::function<BatchReplica(std::uint32_t replica)>& make_replica,
    const std::function<Engine(std::uint32_t replica)>& make_engine,
    ExecutionModel model, std::uint32_t nodes = kNodes,
    std::uint32_t batch = kBatch) {
  SCOPED_TRACE(label);
  const Ring ring(nodes);
  const auto make_batch = [&] {
    std::vector<BatchReplica> replicas;
    replicas.reserve(batch);
    for (std::uint32_t b = 0; b < batch; ++b) {
      replicas.push_back(make_replica(b));
    }
    return BatchEngine(ring, model, std::move(replicas));
  };

  std::vector<Engine> solo;
  solo.reserve(batch);
  for (std::uint32_t b = 0; b < batch; ++b) solo.push_back(make_engine(b));

  BatchEngine stepped = make_batch();
  ASSERT_EQ(stepped.active_replicas(), batch);
  while (stepped.active_replicas() > 0) {
    stepped.step();
    std::uint32_t live = 0;
    for (std::uint32_t b = 0; b < batch; ++b) {
      Engine& twin = solo[b];
      if (twin.now() == horizon_of(b)) continue;  // retired earlier
      SCOPED_TRACE("replica " + std::to_string(b));
      twin.step();
      expect_same_configuration(stepped.snapshot(b), twin.snapshot(),
                                twin.now());
      expect_same_stats(stepped.stats(b), twin.stats());
      if (twin.now() < horizon_of(b)) {
        ++live;
      } else {
        expect_same_coverage(stepped.coverage_report(b),
                             twin.coverage_report());
      }
      if (::testing::Test::HasFailure()) return;
    }
    ASSERT_EQ(stepped.active_replicas(), live) << "round " << stepped.now();
  }

  BatchEngine tiled = make_batch();
  tiled.run_all();
  ASSERT_EQ(tiled.active_replicas(), 0u);
  for (std::uint32_t b = 0; b < batch; ++b) {
    SCOPED_TRACE("run_all replica " + std::to_string(b));
    expect_same_stats(tiled.stats(b), solo[b].stats());
    expect_same_coverage(tiled.coverage_report(b), solo[b].coverage_report());
  }
}

// ---------------------------------------------------------------------------
// FSYNC: oblivious (static, Bernoulli, eventual-missing) and adaptive
// (greedy-blocker) adversaries.

struct FsyncFamily {
  const char* name;
  std::function<AdversaryPtr(const Ring&, std::uint64_t)> make;
};

std::vector<FsyncFamily> fsync_families() {
  return {
      {"static",
       [](const Ring& ring, std::uint64_t) {
         return make_oblivious(std::make_shared<StaticSchedule>(ring));
       }},
      {"bernoulli",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(
             std::make_shared<BernoulliSchedule>(ring, 0.5, seed));
       }},
      {"eventual-missing",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(std::make_shared<EventualMissingEdgeSchedule>(
             std::make_shared<StaticSchedule>(ring),
             static_cast<EdgeId>(seed % ring.edge_count()), /*vanish=*/5));
       }},
      {"greedy-blocker",
       [](const Ring& ring, std::uint64_t) {
         return AdversaryPtr(
             std::make_unique<GreedyBlockerAdversary>(ring, /*max_absence=*/4));
       }},
  };
}

TEST(BatchEngineFsyncTest, MatchesSoloEnginesAcrossRegistryAndAdversaries) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const FsyncFamily& family : fsync_families()) {
      run_differential(
          algorithm + " vs " + family.name,
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm(algorithm, seed);
            replica.adversary = family.make(ring, seed);
            replica.placements = random_placements(ring, kRobots, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm(algorithm, seed),
                          family.make(ring, seed),
                          random_placements(ring, kRobots, seed));
          },
          ExecutionModel::kFsync);
    }
  }
}

// ---------------------------------------------------------------------------
// SSYNC: blocking, oblivious and adaptive adversaries under round-robin,
// Bernoulli and full activation.

struct SsyncScenario {
  const char* name;
  std::function<std::unique_ptr<SsyncAdversary>(const Ring&, std::uint64_t)>
      make_adversary;
  std::function<ActivationRule(std::uint64_t)> make_activation;
};

std::vector<SsyncScenario> ssync_scenarios() {
  return {
      {"blocker+round-robin",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<SsyncBlockingAdversary>(ring);
       },
       [](std::uint64_t) { return ActivationRule::round_robin(); }},
      {"bernoulli-schedule+bernoulli-activation",
       [](const Ring& ring, std::uint64_t seed) {
         return std::make_unique<SsyncFromFsyncAdversary>(make_oblivious(
             std::make_shared<BernoulliSchedule>(ring, 0.6, seed)));
       },
       [](std::uint64_t seed) {
         return ActivationRule::bernoulli(0.6, derive_seed(seed, 0xac));
       }},
      {"adaptive-greedy+full",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<SsyncFromFsyncAdversary>(
             std::make_unique<GreedyBlockerAdversary>(ring,
                                                      /*max_absence=*/4));
       },
       [](std::uint64_t) { return ActivationRule::full(); }},
  };
}

TEST(BatchEngineSsyncTest, MatchesSoloEnginesAcrossRegistryAndScenarios) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const SsyncScenario& scenario : ssync_scenarios()) {
      run_differential(
          algorithm + " vs " + scenario.name,
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm(algorithm, seed);
            replica.ssync_adversary = scenario.make_adversary(ring, seed);
            replica.activation = scenario.make_activation(seed);
            replica.placements = random_placements(ring, kRobots, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm(algorithm, seed),
                          scenario.make_adversary(ring, seed),
                          ActivationPolicy{scenario.make_activation(seed)},
                          random_placements(ring, kRobots, seed));
          },
          ExecutionModel::kSsync);
    }
  }
}

// ---------------------------------------------------------------------------
// ASYNC: the same families under phase schedulers.

struct AsyncScenario {
  const char* name;
  std::function<std::unique_ptr<SsyncAdversary>(const Ring&, std::uint64_t)>
      make_adversary;
  std::function<ActivationRule(std::uint64_t)> make_phases;
};

std::vector<AsyncScenario> async_scenarios() {
  return {
      {"move-blocker+round-robin",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<AsyncMoveBlocker>(ring);
       },
       [](std::uint64_t) { return ActivationRule::round_robin(); }},
      {"bernoulli-schedule+bernoulli-phases",
       [](const Ring& ring, std::uint64_t seed) {
         return std::make_unique<SsyncFromFsyncAdversary>(make_oblivious(
             std::make_shared<BernoulliSchedule>(ring, 0.6, seed)));
       },
       [](std::uint64_t seed) {
         return ActivationRule::bernoulli(0.6, derive_seed(seed, 0xa5));
       }},
      {"adaptive-greedy+lockstep",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<SsyncFromFsyncAdversary>(
             std::make_unique<GreedyBlockerAdversary>(ring,
                                                      /*max_absence=*/4));
       },
       [](std::uint64_t) { return ActivationRule::full(); }},
  };
}

TEST(BatchEngineAsyncTest, MatchesSoloEnginesAcrossRegistryAndScenarios) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const AsyncScenario& scenario : async_scenarios()) {
      run_differential(
          algorithm + " vs " + scenario.name,
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm(algorithm, seed);
            replica.ssync_adversary = scenario.make_adversary(ring, seed);
            replica.activation = scenario.make_phases(seed);
            replica.placements = random_placements(ring, kRobots, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm(algorithm, seed),
                          scenario.make_adversary(ring, seed),
                          PhaseScheduler{scenario.make_phases(seed)},
                          random_placements(ring, kRobots, seed));
          },
          ExecutionModel::kAsync);
    }
  }
}

// ---------------------------------------------------------------------------
// The batched round prologue, pinned through the standard wiring: every
// registry kernel x {SSYNC(activation_p in {0.3, 1.0}), ASYNC} x batchable
// AND non-batchable registry adversary kinds x 10 ragged-horizon seeds must
// be bit-identical to solo Engines round by round.  This is the
// differential pin of the mask/edge word planes: the devirtualized
// Bernoulli activation kernels (p=0.3 sparse masks, p=1.0 full masks
// including the forced-nonempty fallback path), the schedule-filled edge
// rows of the batchable kinds (no Configuration mirror at all) and the
// lazily-mirrored virtual path of the adaptive kinds all feed the same
// word-plane passes.

struct ModelCase {
  const char* name;
  ExecutionModel model;
  double activation_p;
};

std::vector<ModelCase> model_cases() {
  return {{"ssync-p0.3", ExecutionModel::kSsync, 0.3},
          {"ssync-p1.0", ExecutionModel::kSsync, 1.0},
          {"async-p0.5", ExecutionModel::kAsync, 0.5}};
}

/// Two batchable (plane-filled, mirror-free) and two non-batchable
/// (adaptive, mirror-path) registry kinds; the registry's `batchable`
/// capability flag is asserted so the matrix stays honest if the registry
/// evolves.
std::vector<AdversaryConfig> registry_adversary_matrix() {
  // (cage/proof stay out: the staged lower-bound adversaries require the
  // robots to start inside their window, which random placements violate.)
  const std::vector<std::pair<AdversaryConfig, bool>> picks = {
      {adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}), true},
      {adversary_config(AdversaryKind::kMarkov), true},
      {adversary_config(AdversaryKind::kGreedyBlocker), false},
      {adversary_config(AdversaryKind::kAdaptiveMissing), false},
  };
  std::vector<AdversaryConfig> configs;
  for (const auto& [config, expect_batchable] : picks) {
    EXPECT_EQ(adversary_kind_info(config.kind).batchable, expect_batchable)
        << adversary_kind_info(config.kind).name;
    configs.push_back(config);
  }
  return configs;
}

TEST(BatchEngineModelMatrixTest, RegistryKernelsAcrossModelsAndAdversaries) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const ModelCase& mc : model_cases()) {
      for (const AdversaryConfig& config : registry_adversary_matrix()) {
        run_differential(
            algorithm + " vs " + adversary_display_name(config) + " under " +
                mc.name,
            [&](std::uint32_t b) {
              const std::uint64_t seed = b + 1;
              BatchReplica replica;
              replica.algorithm = make_algorithm(algorithm, seed);
              replica.placements = random_placements(ring, kRobots, seed);
              replica.horizon = horizon_of(b);
              wire_standard_replica(
                  replica, mc.model,
                  adversary_from_config(config, ring, seed, kRobots),
                  mc.activation_p, seed);
              return replica;
            },
            [&](std::uint32_t b) {
              const std::uint64_t seed = b + 1;
              auto adversary = std::make_unique<SsyncFromFsyncAdversary>(
                  adversary_from_config(config, ring, seed, kRobots));
              if (mc.model == ExecutionModel::kSsync) {
                return Engine(ring, make_algorithm(algorithm, seed),
                              std::move(adversary),
                              standard_ssync_activation(mc.activation_p, seed),
                              random_placements(ring, kRobots, seed));
              }
              return Engine(ring, make_algorithm(algorithm, seed),
                            std::move(adversary),
                            standard_async_phases(mc.activation_p, seed),
                            random_placements(ring, kRobots, seed));
            },
            mc.model);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// More than 64 robots under SSYNC and ASYNC: a lane's activation set no
// longer fits one 64-bit word, so the batched Bernoulli fill takes its
// multi-word path, and the wide robot count selects the stamped
// multiplicity recompute.  Eight Bernoulli(0.5) lanes (two groups of four)
// on n = 160 against solo Engines, round by round, over a schedule-filled
// (mirror-free) and an adaptive (mirrored) adversary.

TEST(BatchEngineModelMatrixTest, MoreThan64RobotsMatchSoloEngines) {
  constexpr std::uint32_t kWideNodes = 160;
  constexpr std::uint32_t kWideBatch = 8;
  const Ring ring(kWideNodes);
  const std::vector<AdversaryConfig> adversaries = {
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
      adversary_config(AdversaryKind::kGreedyBlocker)};
  for (const std::uint32_t robots : {65u, 96u}) {
    for (const ExecutionModel model :
         {ExecutionModel::kSsync, ExecutionModel::kAsync}) {
      for (const AdversaryConfig& config : adversaries) {
        run_differential(
            std::to_string(robots) + " robots vs " +
                adversary_display_name(config) + " under " + to_string(model),
            [&](std::uint32_t b) {
              const std::uint64_t seed = b + 1;
              BatchReplica replica;
              replica.algorithm = make_algorithm("pef3+", seed);
              replica.placements = random_placements(ring, robots, seed);
              replica.horizon = horizon_of(b);
              wire_standard_replica(
                  replica, model,
                  adversary_from_config(config, ring, seed, robots), 0.5,
                  seed);
              return replica;
            },
            [&](std::uint32_t b) {
              const std::uint64_t seed = b + 1;
              return make_standard_engine(
                  ring, model, make_algorithm("pef3+", seed),
                  adversary_from_config(config, ring, seed, robots), 0.5,
                  seed, random_placements(ring, robots, seed));
            },
            model, kWideNodes, kWideBatch);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A wider ring with more robots: stats and coverage still match solo runs
// (the batch-throughput bench relies on exactly this equality), and ragged
// horizons retire lanes at the right rounds.

TEST(BatchEngineTest, ManyRobotsStatsMatchSoloEngines) {
  const Ring ring(64);
  constexpr std::uint32_t kReplicas = 7;
  constexpr std::uint32_t kBots = 8;

  std::vector<BatchReplica> replicas;
  for (std::uint32_t b = 0; b < kReplicas; ++b) {
    BatchReplica replica;
    replica.algorithm = make_algorithm("pef3+", b + 1);
    replica.adversary = make_oblivious(
        std::make_shared<BernoulliSchedule>(ring, 0.7, b + 1));
    replica.placements = random_placements(ring, kBots, b + 1);
    replica.horizon = 500 + 100 * b;
    replicas.push_back(std::move(replica));
  }
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas));
  batch.run_all();

  for (std::uint32_t b = 0; b < kReplicas; ++b) {
    SCOPED_TRACE("replica " + std::to_string(b));
    Engine solo(ring, make_algorithm("pef3+", b + 1),
                make_oblivious(
                    std::make_shared<BernoulliSchedule>(ring, 0.7, b + 1)),
                random_placements(ring, kBots, b + 1));
    solo.run(500 + 100 * b);
    expect_same_stats(batch.stats(b), solo.stats());
    expect_same_coverage(batch.coverage_report(b), solo.coverage_report());
  }
}

TEST(BatchEngineTest, RaggedHorizonsRetireLanesOnSchedule) {
  const Ring ring(12);
  std::vector<BatchReplica> replicas;
  const std::vector<Time> horizons = {5, 40, 40, 0, 100};
  for (std::size_t b = 0; b < horizons.size(); ++b) {
    BatchReplica replica;
    replica.algorithm = make_algorithm("bounce", b + 1);
    replica.adversary =
        make_oblivious(std::make_shared<StaticSchedule>(ring));
    replica.placements = random_placements(ring, 3, b + 1);
    replica.horizon = horizons[b];
    replicas.push_back(std::move(replica));
  }
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas));
  // The zero-horizon replica retires before the first step.
  EXPECT_EQ(batch.active_replicas(), 4u);
  for (Time t = 0; t < 5; ++t) batch.step();
  EXPECT_EQ(batch.active_replicas(), 3u);
  for (Time t = 5; t < 40; ++t) batch.step();
  EXPECT_EQ(batch.active_replicas(), 1u);
  batch.run_all();
  EXPECT_EQ(batch.active_replicas(), 0u);
  for (std::size_t b = 0; b < horizons.size(); ++b) {
    EXPECT_EQ(batch.stats(static_cast<std::uint32_t>(b)).rounds, horizons[b]);
  }
}

TEST(BatchEngineTest, RunBatteryBatchedMatchesSequentialRuns) {
  // run_battery runs its seeds as one traced seed group, which always runs
  // solo, whatever plan_batch would pick for an untraced group.  Result s
  // must be byte-identical to run_scenario at seed first_seed + s —
  // random-walk included, whose walk is seeded per run, not from
  // spec.seed.
  for (const char* algorithm : {"pef3+", "random-walk"}) {
    for (const ExecutionModel model :
         {ExecutionModel::kFsync, ExecutionModel::kSsync,
          ExecutionModel::kAsync}) {
      for (const std::uint32_t seeds : {2u, 4u}) {
        SCOPED_TRACE(std::string(algorithm) + " " + to_string(model) + " " +
                     std::to_string(seeds) + " seeds");
        ScenarioSpec spec;
        spec.nodes = 10;
        spec.robots = 3;
        spec.algorithm = algorithm;
        spec.adversary =
            adversary_config(AdversaryKind::kBernoulli, {{"p", 0.6}});
        spec.horizon = 300;
        spec.model = model;
        spec.seed = 1;

        const std::vector<RunResult> battery = run_battery(spec, 5, seeds);
        ASSERT_EQ(battery.size(), seeds);
        for (std::uint32_t s = 0; s < seeds; ++s) {
          ScenarioSpec solo = spec;
          solo.seed = 5 + s;
          EXPECT_EQ(run_result_to_json(battery[s]),
                    run_result_to_json(run_scenario(solo)))
              << "seed " << solo.seed;
        }
      }
    }
  }
}

TEST(BatchEngineTest, SingleReplicaBatchIsAnEngine) {
  const Ring ring(16);
  BatchReplica replica;
  replica.algorithm = make_algorithm("pef3+", 3);
  replica.adversary =
      make_oblivious(std::make_shared<BernoulliSchedule>(ring, 0.5, 3));
  replica.placements = spread_placements(ring, 4);
  replica.horizon = 300;
  std::vector<BatchReplica> replicas;
  replicas.push_back(std::move(replica));
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas));
  batch.run_all();

  Engine solo(ring, make_algorithm("pef3+", 3),
              make_oblivious(std::make_shared<BernoulliSchedule>(ring, 0.5, 3)),
              spread_placements(ring, 4));
  solo.run(300);
  expect_same_stats(batch.stats(0), solo.stats());
  expect_same_coverage(batch.coverage_report(0), solo.coverage_report());
}

}  // namespace
}  // namespace pef
