// Differential tests pinning the unified Engine's round machinery — Look,
// Move, scheduling and multiplicity — to the reference simulators.  Both
// run the same kernels (algorithms/kernels.hpp), which the truth tables in
// tests/kernels_test.cpp pin to the paper's rules; what these tests pin is
// everything around Compute:
//
//   * FSYNC: every registry algorithm must reproduce Simulator round by
//     round across adversary families and seeds;
//   * SSYNC / ASYNC models: the Engine must reproduce the reference
//     SsyncSimulator / AsyncSimulator round-by-round, across activation
//     policies / phase schedulers, adversaries and seeds.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/registry.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/sweep_runner.hpp"
#include "oracles/simulators.hpp"
#include "scheduler/async.hpp"
#include "scheduler/ssync.hpp"

namespace pef {
namespace {

constexpr std::uint64_t kSeeds = 10;
constexpr Time kRounds = 300;
constexpr std::uint32_t kNodes = 9;
constexpr std::uint32_t kRobots = 3;

void expect_same_round(const RoundRecord& actual, const RoundRecord& expected,
                       Time t) {
  ASSERT_EQ(actual.time, expected.time);
  ASSERT_EQ(actual.edges, expected.edges) << "round " << t;
  ASSERT_EQ(actual.robots.size(), expected.robots.size());
  for (RobotId r = 0; r < expected.robots.size(); ++r) {
    ASSERT_EQ(actual.robots[r].node_before, expected.robots[r].node_before)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].node_after, expected.robots[r].node_after)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].dir_before, expected.robots[r].dir_before)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].dir_after, expected.robots[r].dir_after)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].moved, expected.robots[r].moved)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].saw_other_robots,
              expected.robots[r].saw_other_robots)
        << "round " << t << " robot " << r;
  }
}

std::vector<RobotPlacement> placements_for(std::uint32_t k,
                                           std::uint64_t seed) {
  return random_placements(Ring(kNodes), k, seed);
}

// ---------------------------------------------------------------------------
// FSYNC: unified Engine vs Simulator.

struct FsyncAdversaryFamily {
  const char* name;
  AdversaryPtr (*make)(const Ring& ring, std::uint64_t seed);
};

const FsyncAdversaryFamily kFsyncFamilies[] = {
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
       return std::unique_ptr<Adversary>(
           std::make_unique<GreedyBlockerAdversary>(ring, /*max_absence=*/4));
     }},
};

TEST(KernelEngineTest, EveryRegistryKernelNamesItsAlgorithm) {
  for (const std::string& name : algorithm_names()) {
    EXPECT_EQ(to_string(make_algorithm(name, 1)->kernel().id), name);
  }
}

TEST(KernelEngineTest, MatchesSimulatorAcrossRegistryAndAdversaries) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const FsyncAdversaryFamily& family : kFsyncFamilies) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(algorithm + " vs " + family.name + " seed " +
                     std::to_string(seed));
        const Ring ring(kNodes);
        const auto placements = placements_for(kRobots, seed);

        Simulator reference(ring, make_algorithm(algorithm, seed),
                            family.make(ring, seed), placements);

        EngineOptions options;
        options.record_trace = true;
        Engine engine(ring, make_algorithm(algorithm, seed),
                      family.make(ring, seed), placements, options);

        reference.run(kRounds);
        engine.run(kRounds);
        ASSERT_EQ(engine.trace().rounds().size(), kRounds);
        for (Time t = 0; t < kRounds; ++t) {
          expect_same_round(engine.trace().rounds()[t],
                            reference.trace().rounds()[t], t);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SSYNC: unified Engine vs SsyncSimulator.

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

TEST(UnifiedSsyncTest, MatchesReferenceAcrossRegistryAndScenarios) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const SsyncScenario& scenario : ssync_scenarios()) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(algorithm + " vs " + scenario.name + " seed " +
                     std::to_string(seed));
        const Ring ring(kNodes);
        const auto placements = placements_for(kRobots, seed);

        SsyncSimulator reference(ring, make_algorithm(algorithm, seed),
                                 scenario.make_adversary(ring, seed),
                                 scenario.make_activation(seed), placements);

        EngineOptions options;
        options.record_trace = true;
        Engine engine(ring, make_algorithm(algorithm, seed),
                      scenario.make_adversary(ring, seed),
                      ActivationPolicy{scenario.make_activation(seed)},
                      placements, options);
        EXPECT_EQ(engine.model(), ExecutionModel::kSsync);
        engine.run(kRounds);
        for (Time t = 0; t < kRounds; ++t) reference.step();
        ASSERT_EQ(engine.trace().rounds().size(), kRounds);
        for (Time t = 0; t < kRounds; ++t) {
          expect_same_round(engine.trace().rounds()[t],
                            reference.trace().rounds()[t], t);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ASYNC: unified Engine vs AsyncSimulator.

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

TEST(UnifiedAsyncTest, MatchesReferenceAcrossRegistryAndScenarios) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const AsyncScenario& scenario : async_scenarios()) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(algorithm + " vs " + scenario.name + " seed " +
                     std::to_string(seed));
        const Ring ring(kNodes);
        const auto placements = placements_for(kRobots, seed);

        AsyncSimulator reference(ring, make_algorithm(algorithm, seed),
                                 scenario.make_adversary(ring, seed),
                                 scenario.make_phases(seed), placements);

        EngineOptions options;
        options.record_trace = true;
        Engine engine(ring, make_algorithm(algorithm, seed),
                      scenario.make_adversary(ring, seed),
                      PhaseScheduler{scenario.make_phases(seed)}, placements,
                      options);
        EXPECT_EQ(engine.model(), ExecutionModel::kAsync);
        engine.run(kRounds);
        for (Time t = 0; t < kRounds; ++t) reference.step();
        ASSERT_EQ(engine.trace().rounds().size(), kRounds);
        for (Time t = 0; t < kRounds; ++t) {
          expect_same_round(engine.trace().rounds()[t],
                            reference.trace().rounds()[t], t);
        }
        // Final phase machines agree for every robot (per-tick phase
        // agreement is implied by the round records: each advancing
        // robot's record shows which phase fired).
        for (RobotId r = 0; r < kRobots; ++r) {
          ASSERT_EQ(engine.phase_of(r), reference.phase_of(r)) << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental stats stay valid in the new models.

TEST(UnifiedEngineTest, SsyncStatsAccumulateWithoutTrace) {
  const Ring ring(6);
  Engine engine(ring, make_algorithm("pef3+"),
                std::make_unique<SsyncBlockingAdversary>(ring),
                ActivationPolicy{ActivationRule::round_robin()},
                spread_placements(ring, 3));
  EXPECT_FALSE(engine.recording_trace());
  engine.run(600);
  // The [10] impossibility: frozen forever, only the 3 start nodes visited.
  EXPECT_EQ(engine.stats().rounds, 600u);
  EXPECT_EQ(engine.stats().total_moves, 0u);
  EXPECT_EQ(engine.stats().visited_node_count, 3u);
}

TEST(UnifiedEngineTest, AsyncStatsAccumulateWithoutTrace) {
  const Ring ring(6);
  Engine engine(ring, make_algorithm("pef3+"),
                std::make_unique<AsyncMoveBlocker>(ring),
                PhaseScheduler{ActivationRule::round_robin()},
                spread_placements(ring, 3));
  engine.run(900);
  EXPECT_EQ(engine.stats().total_moves, 0u);
  EXPECT_EQ(engine.stats().visited_node_count, 3u);
}

TEST(UnifiedEngineTest, SweepGridSpansModels) {
  SweepSpec grid;
  grid.algorithms = {"pef3+"};
  grid.adversaries = {adversary_config(AdversaryKind::kStatic)};
  grid.models = {ExecutionModel::kFsync, ExecutionModel::kSsync,
                 ExecutionModel::kAsync};
  grid.ring_sizes = {6};
  grid.robot_counts = {3};
  grid.seeds = {1, 2};
  grid.horizon = 400;

  const SweepResult serial = SweepRunner(1).run(grid);
  const SweepResult parallel = SweepRunner(4).run(grid);
  ASSERT_EQ(serial.cells.size(), 6u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].model, grid.models[i / 2]);
  }
  // Distinct models get distinct derived streams.
  EXPECT_NE(effective_seed(1, 0, 0, 6, 3, 0), effective_seed(1, 0, 0, 6, 3, 1));
  // FSYNC on a static ring explores; SSYNC/ASYNC under fair Bernoulli
  // activation on a static ring explore too (only slower).
  for (const SweepCell& cell : serial.cells) {
    EXPECT_TRUE(cell.covered) << to_string(cell.model) << " seed "
                              << cell.seed;
  }
}

}  // namespace
}  // namespace pef
