// patrol — the paper's motivating scenario: patrolling a building whose
// doors open and close unpredictably, until one door fails permanently.
//
// A ring of rooms is patrolled by three PEF_3+ robots.  Doors (edges)
// flicker randomly; at a configurable time one door jams shut forever.  The
// example renders an ASCII strip of the ring over time, showing the
// sentinel/explorer structure emerge (Lemma 3.7): two robots post
// themselves at the jammed door's two sides, the third keeps sweeping the
// corridor between them.
#include <iostream>
#include <string>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/sentinels.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"
#include "scheduler/simulator.hpp"

int main() {
  using namespace pef;

  constexpr std::uint32_t kRooms = 12;
  constexpr EdgeId kJammedDoor = 5;  // between rooms 5 and 6
  constexpr Time kJamTime = 40;
  constexpr Time kHorizon = 900;

  const Ring ring(kRooms);
  // Doors flicker (each present 70% of rounds) until the jam, after which
  // door 5 is shut forever — a connected-over-time evolving ring.
  auto flicker = std::make_shared<BernoulliSchedule>(ring, 0.7, 20260612);
  auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
      flicker, kJammedDoor, kJamTime);

  EngineOptions options;
  options.record_trace = true;  // the strip and the analyses read the trace
  Engine engine(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                spread_placements(ring, 3), options);

  std::cout << "Patrolling " << kRooms
            << " rooms with 3 robots (PEF_3+).  Door " << kJammedDoor
            << " (rooms 5|6) jams shut at t=" << kJamTime << ".\n\n"
            << "Legend: digit = # robots in the room, '.' = empty, '|' = "
               "the jammed door's position.\n\n";

  auto render = [&](Time t) {
    std::string line = "t=" + std::to_string(t);
    line.resize(8, ' ');
    for (NodeId room = 0; room < kRooms; ++room) {
      std::uint32_t count = 0;
      for (RobotId r = 0; r < 3; ++r) {
        if (engine.trace().position_at(r, t) == room) ++count;
      }
      line += count == 0 ? '.' : static_cast<char>('0' + count);
      if (room == ring.edge_tail(kJammedDoor)) line += '|';
    }
    std::cout << line << "\n";
  };

  for (Time t = 0; t < kHorizon; ++t) {
    engine.step();
    if (t < 12 || (t >= kJamTime - 2 && t < kJamTime + 10) ||
        (t >= kHorizon - 12)) {
      render(t + 1);
    } else if (t == 12 || t == kJamTime + 10) {
      std::cout << "   ...\n";
    }
  }

  const auto coverage = analyze_coverage(engine.trace());
  const auto sentinels = analyze_sentinels(engine.trace(), kJammedDoor);

  std::cout << "\nAfter " << kHorizon << " rounds:\n"
            << "  every room patrolled       : "
            << (coverage.perpetual(kRooms) ? "yes" : "NO") << "\n"
            << "  longest unpatrolled stretch: " << coverage.max_revisit_gap
            << " rounds\n"
            << "  sentinels posted           : "
            << sentinels.sentinels_at_horizon.size()
            << " (rooms flanking the jammed door)\n"
            << "  sweeping explorers         : "
            << sentinels.explorers_at_horizon.size() << "\n";
  if (sentinels.formation_time) {
    std::cout << "  sentinel posts stable since: t="
              << *sentinels.formation_time << "\n";
  }
  std::cout << "\nThis is Lemma 3.7 in action: the two sentinels mark the "
               "dead door so the explorer knows to turn around, keeping "
               "every room infinitely often visited (Theorem 3.1).\n";
  return coverage.perpetual(kRooms) ? 0 : 1;
}
