// Differential tests: Engine must be a bit-exact drop-in for the
// reference Simulator, and SweepRunner output must be independent of the
// thread count.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include "adversary/confinement.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/proof_adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "common/rng.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/sweep_runner.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

constexpr std::uint64_t kSeeds = 10;
constexpr Time kRounds = 300;

/// The adversary families of the differential matrix.  Adaptive adversaries
/// are stateful, so each engine gets its own freshly-built instance with
/// identical parameters; fed identical gammas they make identical choices.
struct AdversaryFamily {
  const char* name;
  AdversaryPtr (*make)(const Ring& ring, std::uint32_t k);
  /// Window-based adversaries (proof, cage) require the robots to start
  /// inside their window {0, ..., k}; others take fully random placements.
  bool window_placements = false;
};

AdversaryPtr make_all_edges(const Ring& ring, std::uint32_t) {
  return make_oblivious(std::make_shared<StaticSchedule>(ring));
}

AdversaryPtr make_proof(const Ring& ring, std::uint32_t k) {
  const std::uint32_t width = std::min(k + 1, ring.node_count() - 1);
  return std::make_unique<StagedProofAdversary>(ring, 0, width,
                                                /*patience=*/32);
}

AdversaryPtr make_greedy(const Ring& ring, std::uint32_t) {
  return std::make_unique<GreedyBlockerAdversary>(ring, /*max_absence=*/4);
}

AdversaryPtr make_cage(const Ring& ring, std::uint32_t k) {
  const std::uint32_t width = std::min(k + 1, ring.node_count() - 1);
  return std::make_unique<ConfinementAdversary>(ring, 0, width);
}

const AdversaryFamily kFamilies[] = {
    {"all-edges", make_all_edges},
    {"proof", make_proof, /*window_placements=*/true},
    {"greedy-blocker", make_greedy},
    {"confinement", make_cage, /*window_placements=*/true},
};

/// Towerless placements on nodes {0, ..., k-1} (inside every window-based
/// adversary's window) with seed-derived chiralities.
std::vector<RobotPlacement> window_placements(std::uint32_t k,
                                              std::uint64_t seed) {
  Xoshiro256 rng(derive_seed(seed, 0x77));
  std::vector<RobotPlacement> placements;
  placements.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    placements.push_back(
        {static_cast<NodeId>(i), Chirality(rng.next_bool(0.5))});
  }
  return placements;
}

/// Round-by-round equality of the two engines' traces.
void expect_identical_run(const std::string& algorithm,
                          const AdversaryFamily& family, std::uint32_t n,
                          std::uint32_t k, std::uint64_t seed) {
  SCOPED_TRACE(algorithm + " vs " + family.name + " n=" + std::to_string(n) +
               " k=" + std::to_string(k) + " seed=" + std::to_string(seed));
  const Ring ring(n);
  const auto placements = family.window_placements
                              ? window_placements(k, seed)
                              : random_placements(ring, k, seed);

  Simulator reference(ring, make_algorithm(algorithm, seed),
                      family.make(ring, k), placements);
  EngineOptions options;
  options.record_trace = true;
  Engine fast(ring, make_algorithm(algorithm, seed), family.make(ring, k),
                  placements, options);

  for (Time t = 0; t < kRounds; ++t) {
    const RoundRecord expected = reference.step();
    fast.step();
    const RoundRecord& actual = fast.trace().rounds().back();

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
    // Live accessors agree with the reference robots.
    for (RobotId r = 0; r < reference.robot_count(); ++r) {
      ASSERT_EQ(fast.robot_node(r), reference.robot(r).node());
      ASSERT_EQ(fast.robot_dir(r), reference.robot(r).dir());
    }
  }
}

TEST(FastEngineDifferentialTest, MatchesSimulatorAcrossRegistryAndAdversaries) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const AdversaryFamily& family : kFamilies) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        expect_identical_run(algorithm, family, /*n=*/9, /*k=*/3, seed);
      }
    }
  }
}

TEST(FastEngineDifferentialTest, MatchesSimulatorOnOtherGeometries) {
  // Edge geometries: the 2-node multigraph, a dense ring (k = n - 1), and a
  // larger sparse ring.
  for (const AdversaryFamily& family : kFamilies) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      expect_identical_run("pef3+", family, /*n=*/5, /*k=*/4, seed);
      expect_identical_run("pef3+", family, /*n=*/32, /*k=*/6, seed);
      expect_identical_run("pef1", family, /*n=*/4, /*k=*/1, seed);
      // The 2-node multigraph ring: too small for a window-based adversary
      // (their windows need 2 <= width < n).
      if (!family.window_placements) {
        expect_identical_run("pef1", family, /*n=*/2, /*k=*/1, seed);
      }
    }
  }
}

TEST(FastEngineTest, IncrementalCoverageMatchesTraceAnalysis) {
  // The engine's O(1)-per-round coverage bookkeeping must agree with the
  // trace-based analyze_coverage on every field, under every model and
  // under both an oblivious and an adaptive adversary (run_scenario reports
  // the incremental one).
  for (const ExecutionModel model :
       {ExecutionModel::kFsync, ExecutionModel::kSsync,
        ExecutionModel::kAsync}) {
    for (const bool adaptive : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Ring ring(8);
        const auto placements = random_placements(ring, 3, seed);
        EngineOptions options;
        options.record_trace = true;
        AdversaryPtr adversary =
            adaptive ? make_greedy(ring, 3)
                     : make_oblivious(std::make_shared<BernoulliSchedule>(
                           ring, 0.6, seed));
        Engine engine =
            make_standard_engine(ring, model, make_algorithm("pef3+"),
                                 std::move(adversary), 0.5, seed, placements,
                                 options);
        engine.run(400);

        const CoverageReport from_trace = analyze_coverage(engine.trace());
        const CoverageReport incremental = engine.coverage_report();
        const std::string what = std::string(to_string(model)) +
                                 (adaptive ? " greedy-blocker" : " bernoulli") +
                                 " seed=" + std::to_string(seed);
        EXPECT_EQ(incremental.visit_counts, from_trace.visit_counts) << what;
        EXPECT_EQ(incremental.cover_time, from_trace.cover_time) << what;
        EXPECT_EQ(incremental.visited_node_count,
                  from_trace.visited_node_count)
            << what;
        EXPECT_EQ(incremental.max_revisit_gap, from_trace.max_revisit_gap)
            << what;
        EXPECT_EQ(incremental.max_closed_gap, from_trace.max_closed_gap)
            << what;
        EXPECT_EQ(incremental.nodes_visited_in_suffix,
                  from_trace.nodes_visited_in_suffix)
            << what;
        EXPECT_EQ(incremental.horizon, from_trace.horizon) << what;
        EXPECT_EQ(incremental.suffix_window, from_trace.suffix_window)
            << what;
      }
    }
  }
}

TEST(FastEngineTest, StatsAccumulateWithoutTrace) {
  const Ring ring(6);
  Engine engine(ring, make_algorithm("pef3+"), make_all_edges(ring, 3),
                    spread_placements(ring, 3));
  EXPECT_FALSE(engine.recording_trace());
  engine.run(100);
  EXPECT_EQ(engine.stats().rounds, 100u);
  EXPECT_GT(engine.stats().total_moves, 0u);
  EXPECT_EQ(engine.now(), 100u);
  // All robots still on the ring, occupancy consistent.
  std::uint32_t total = 0;
  for (NodeId u = 0; u < ring.node_count(); ++u) total += engine.robots_on(u);
  EXPECT_EQ(total, 3u);
}

SweepSpec small_grid() {
  SweepSpec spec;
  spec.algorithms = {"pef3+", "bounce"};
  spec.adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
      adversary_config(AdversaryKind::kBoundedAbsence, {{"max_absence", 4}})};
  spec.ring_sizes = {6, 10};
  spec.robot_counts = {3};
  spec.seeds = {1, 2, 3};
  spec.horizon = 500;
  return spec;
}

TEST(SweepRunnerTest, OutputIsThreadCountInvariant) {
  const SweepSpec grid = small_grid();
  const SweepResult serial = SweepRunner(1).run(grid);
  const SweepResult parallel = SweepRunner(4).run(grid);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_GT(serial.cells.size(), 0u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(SweepRunnerTest, CellsFollowGridOrderAndSkipIllFormedCells) {
  SweepSpec grid = small_grid();
  grid.ring_sizes = {2, 6};
  grid.robot_counts = {3};  // k=3 >= n=2: that slice must be skipped
  const SweepResult result = SweepRunner(2).run(grid);
  for (const SweepCell& cell : result.cells) {
    EXPECT_EQ(cell.nodes, 6u);
    EXPECT_LT(cell.robots, cell.nodes);
  }
  // grid order: algorithm-major, then adversary, n, k, seed.
  ASSERT_GE(result.cells.size(), 2u);
  EXPECT_EQ(result.cells.front().algorithm, "pef3+");
  EXPECT_EQ(result.cells.back().algorithm, "bounce");
}

TEST(SweepRunnerTest, PerpetualVerdictMatchesTheory) {
  // pef3+ with k=3 on small rings must be perpetual against the oblivious
  // battery (Theorem 3.1); the sweep's aggregates must reflect that.
  SweepSpec grid;
  grid.algorithms = {"pef3+"};
  grid.adversaries = {adversary_config(AdversaryKind::kStatic),
                      adversary_config(AdversaryKind::kBernoulli,
                                       {{"p", 0.7}})};
  grid.ring_sizes = {6};
  grid.robot_counts = {3};
  grid.seeds = {1, 2};
  grid.horizon = 2000;
  const SweepResult result = SweepRunner(2).run(grid);
  for (const SweepCell& cell : result.cells) {
    EXPECT_TRUE(cell.perpetual)
        << cell.algorithm << " vs " << cell.adversary << " seed " << cell.seed;
    EXPECT_TRUE(cell.covered);
  }
}

TEST(SweepRunnerTest, EffectiveSeedSeparatesCells) {
  // Distinct coordinates must give distinct streams.
  const auto s1 = effective_seed(1, 0, 0, 6, 3);
  EXPECT_NE(s1, effective_seed(2, 0, 0, 6, 3));
  EXPECT_NE(s1, effective_seed(1, 1, 0, 6, 3));
  EXPECT_NE(s1, effective_seed(1, 0, 1, 6, 3));
  EXPECT_NE(s1, effective_seed(1, 0, 0, 7, 3));
  EXPECT_NE(s1, effective_seed(1, 0, 0, 6, 4));
}

}  // namespace
}  // namespace pef
