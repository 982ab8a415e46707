// adversarial_showdown — watch the impossibility side of Table 1.
//
// Every deterministic algorithm in the registry is pitted against the
// staged lower-bound adversaries of Theorems 4.1 (two robots, window
// {u,v,w}) and 5.1 (one robot, window {u,v}).  The program prints, per
// algorithm, how much of the ring was ever seen, whether the adversary was
// reduced to its terminal single-missing-edge fallback (camping
// algorithms), and the legality audit of the realized evolving graph.
#include <iostream>
#include <string>
#include <vector>

#include "adversary/proof_adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "common/table.hpp"
#include "dynamic_graph/properties.hpp"
#include "engine/engine.hpp"

namespace {

void showdown(std::uint32_t robots, std::uint32_t n, pef::Time horizon) {
  using namespace pef;
  std::cout << "--- " << robots << " robot" << (robots > 1 ? "s" : "")
            << " on an n=" << n << " connected-over-time ring ("
            << (robots == 2 ? "Theorem 4.1" : "Theorem 5.1") << ") ---\n";
  TextTable table({"algorithm", "nodes seen", "perpetual", "stages",
                   "terminal fallback", "graph legal"});
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(n);
    auto adversary = std::make_unique<StagedProofAdversary>(
        ring, /*anchor=*/0, /*width=*/robots + 1, /*patience=*/64);
    auto* handle = adversary.get();
    std::vector<RobotPlacement> placements;
    for (std::uint32_t i = 0; i < robots; ++i) {
      placements.push_back({static_cast<NodeId>(i), Chirality(true)});
    }
    EngineOptions options;
    options.record_trace = true;  // the legality audit reads edge history
    Engine engine(ring, make_algorithm(name), std::move(adversary),
                  placements, options);
    engine.run(horizon);
    const auto coverage = analyze_coverage(engine.trace());
    const auto audit = audit_connectivity(engine.trace(), horizon / 4);
    table.add_row({name,
                   std::to_string(coverage.visited_node_count) + "/" +
                       std::to_string(n),
                   format_bool(coverage.perpetual(n)),
                   std::to_string(handle->stages_completed()),
                   handle->in_terminal_mode()
                       ? "yes (edge e" +
                             std::to_string(*handle->terminal_edge()) +
                             " gone forever)"
                       : "no (kept staging)",
                   format_bool(audit.connected_over_time)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout
      << "Adversarial showdown: the staged proof adversaries vs every\n"
         "deterministic algorithm in the library.\n\n"
         "The adversary freezes all robots but one and leaves the designated\n"
         "robot exactly one inward edge (the paper's OneEdge situation).\n"
         "Algorithms that keep departing stay caged in the window forever;\n"
         "algorithms that camp are handed a single eventually-missing edge\n"
         "and starve anyway.  Either way: no perpetual exploration, on a\n"
         "legal connected-over-time graph.\n\n";

  showdown(/*robots=*/1, /*n=*/8, /*horizon=*/4000);
  showdown(/*robots=*/2, /*n=*/8, /*horizon=*/4000);

  std::cout << "Compare with `quickstart 8 3`: with three robots (PEF_3+),\n"
               "no adversary of this class can prevent exploration\n"
               "(Theorem 3.1).\n";
  return 0;
}
