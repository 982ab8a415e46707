// bench_ssync_impossibility — the SSYNC extension: reproduces the
// impossibility argument of Di Luna et al. [10] that motivates the paper's
// restriction to FSYNC.
//
// A round-robin activation scheduler plus an adversary that removes both
// adjacent edges of each activated robot freezes *every* algorithm forever
// — while keeping each edge recurrent (present whenever its incident robots
// are inactive).  Contrast column: the same algorithms under FSYNC with a
// static graph, where the possible cells of Table 1 explore happily.
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"
#include "scheduler/async.hpp"
#include "scheduler/simulator.hpp"
#include "scheduler/ssync.hpp"

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint32_t kRobots = 3;
  constexpr Time kHorizon = 3000;

  std::cout << "=== SSYNC impossibility ([10], motivates FSYNC) ===\n"
            << "n = " << kNodes << ", k = " << kRobots
            << ", round-robin activation, blocker adversary.\n\n";

  TextTable table({"algorithm", "ssync visited", "moves", "edges recurrent",
                   "fsync/static visited"});
  CsvWriter csv("ssync_impossibility.csv",
                {"algorithm", "ssync_visited", "moves", "recurrent",
                 "fsync_visited"});
  BenchReport report("ssync_impossibility");

  bool reproduction_holds = true;
  for (const std::string& name : algorithm_names()) {
    const Ring ring(kNodes);

    SsyncSimulator ssync(ring, make_algorithm(name, 3),
                         std::make_unique<SsyncBlockingAdversary>(ring),
                         ActivationRule::round_robin(),
                         spread_placements(ring, kRobots));
    ssync.run(kHorizon);
    std::uint64_t moves = 0;
    for (const RoundRecord& round : ssync.trace().rounds()) {
      for (const RobotRoundRecord& r : round.robots) {
        if (r.moved) ++moves;
      }
    }
    const auto ssync_cov = analyze_coverage(ssync.trace());
    const auto audit = audit_connectivity(
        ring, ssync.trace().edge_history(), /*patience=*/kHorizon / 4);

    Engine fsync(
        ring, make_algorithm(name, 3),
        make_oblivious(std::make_shared<StaticSchedule>(ring)),
        spread_placements(ring, kRobots));
    fsync.run(kHorizon);
    const auto fsync_cov = fsync.coverage_report();
    report.add_rounds(2 * kHorizon);

    reproduction_holds = reproduction_holds && moves == 0 &&
                         ssync_cov.visited_node_count == kRobots &&
                         audit.connected_over_time;
    table.add_row({name,
                   std::to_string(ssync_cov.visited_node_count) + "/" +
                       std::to_string(kNodes),
                   std::to_string(moves), format_bool(audit.connected_over_time),
                   std::to_string(fsync_cov.visited_node_count) + "/" +
                       std::to_string(kNodes)});
    csv.add_row({name, std::to_string(ssync_cov.visited_node_count),
                 std::to_string(moves),
                 format_bool(audit.connected_over_time),
                 std::to_string(fsync_cov.visited_node_count)});
    report.add_cell()
        .param("scheduler", "ssync")
        .param("algorithm", name)
        .param("n", std::uint64_t{kNodes})
        .param("k", std::uint64_t{kRobots})
        .metric("visited_nodes",
                std::uint64_t{ssync_cov.visited_node_count})
        .metric("moves", moves)
        .metric("recurrent", audit.connected_over_time)
        .metric("fsync_visited_nodes",
                std::uint64_t{fsync_cov.visited_node_count});
  }
  table.print(std::cout);

  // The ASYNC face of the same argument: per-phase scheduling, the
  // adversary blocks robots whose Move phase fires.
  std::cout << "\nASYNC (per-phase scheduling, Move blocker):\n";
  TextTable async_table({"algorithm", "async visited", "moves",
                         "edges recurrent"});
  for (const std::string& name : algorithm_names()) {
    const Ring ring(kNodes);
    AsyncSimulator async(ring, make_algorithm(name, 3),
                         std::make_unique<AsyncMoveBlocker>(ring),
                         ActivationRule::round_robin(),
                         spread_placements(ring, kRobots));
    async.run(kHorizon);
    std::uint64_t moves = 0;
    for (const RoundRecord& round : async.trace().rounds()) {
      for (const RobotRoundRecord& r : round.robots) {
        if (r.moved) ++moves;
      }
    }
    const auto cov = analyze_coverage(async.trace());
    const auto audit = audit_connectivity(
        ring, async.trace().edge_history(), kHorizon / 4);
    reproduction_holds = reproduction_holds && moves == 0 &&
                         cov.visited_node_count == kRobots &&
                         audit.connected_over_time;
    async_table.add_row({name,
                         std::to_string(cov.visited_node_count) + "/" +
                             std::to_string(kNodes),
                         std::to_string(moves),
                         format_bool(audit.connected_over_time)});
    report.add_rounds(kHorizon);
    report.add_cell()
        .param("scheduler", "async")
        .param("algorithm", name)
        .param("n", std::uint64_t{kNodes})
        .param("k", std::uint64_t{kRobots})
        .metric("visited_nodes", std::uint64_t{cov.visited_node_count})
        .metric("moves", moves)
        .metric("recurrent", audit.connected_over_time);
  }
  async_table.print(std::cout);

  // The same impossibility on the unified Engine's SSYNC/ASYNC fast paths:
  // blocker + round-robin must freeze pef3+ at Engine-class throughput.
  // This is the bench the reference engines were too slow for — the model
  // axis now runs at engine speed.
  std::cout << "\nUnified engine (blocker + round-robin, pef3+, horizon "
            << 100 * kHorizon << "):\n";
  // Throughput goes to the JSON only, so stdout stays byte-comparable
  // across commits.
  TextTable engine_table({"model", "moves", "visited"});
  constexpr Time kEngineHorizon = 100 * kHorizon;
  for (const ExecutionModel model :
       {ExecutionModel::kSsync, ExecutionModel::kAsync}) {
    const Ring ring(kNodes);
    std::optional<Engine> engine;
    if (model == ExecutionModel::kSsync) {
      engine.emplace(ring, make_algorithm("pef3+"),
                     std::make_unique<SsyncBlockingAdversary>(ring),
                     ActivationPolicy{ActivationRule::round_robin()},
                     spread_placements(ring, kRobots));
    } else {
      engine.emplace(ring, make_algorithm("pef3+"),
                     std::make_unique<AsyncMoveBlocker>(ring),
                     PhaseScheduler{ActivationRule::round_robin()},
                     spread_placements(ring, kRobots));
    }
    const auto start = std::chrono::steady_clock::now();
    engine->run(kEngineHorizon);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const double rps = static_cast<double>(kEngineHorizon) / secs;

    const bool frozen = engine->stats().total_moves == 0 &&
                        engine->stats().visited_node_count == kRobots;
    reproduction_holds = reproduction_holds && frozen;
    engine_table.add_row(
        {to_string(model), std::to_string(engine->stats().total_moves),
         std::to_string(engine->stats().visited_node_count) + "/" +
             std::to_string(kNodes)});
    report.add_rounds(kEngineHorizon);
    report.add_cell()
        .param("series", "unified-engine")
        .param("model", to_string(model))
        .param("n", std::uint64_t{kNodes})
        .param("k", std::uint64_t{kRobots})
        .metric("rounds_per_sec", rps)
        .metric("moves", engine->stats().total_moves)
        .metric("visited_nodes",
                std::uint64_t{engine->stats().visited_node_count})
        .metric("frozen", frozen);
  }
  engine_table.print(std::cout);

  std::cout << "\nExpected shape: zero moves and only the k start nodes "
               "visited under SSYNC and ASYNC alike, for every algorithm, "
               "on a recurrent (connected-over-time) graph — exploration "
               "is impossible outside FSYNC, which is why the paper "
               "studies FSYNC.\nReproduction "
            << (reproduction_holds ? "HOLDS" : "FAILS") << ".\n";
  report.summary("reproduction_holds", reproduction_holds);
  report.write();
  return reproduction_holds ? 0 : 1;
}
