// Tests for the ASCII trace renderer.
#include "analysis/render.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "dynamic_graph/schedules.hpp"
#include "oracles/simulators.hpp"

namespace pef {
namespace {

Simulator make_sim(std::uint32_t n, std::uint32_t k) {
  const Ring ring(n);
  return Simulator(ring, make_algorithm("keep-direction"),
                   make_oblivious(std::make_shared<StaticSchedule>(ring)),
                   spread_placements(ring, k));
}

TEST(RenderTest, ConfigurationShowsRobotCounts) {
  auto sim = make_sim(5, 2);  // robots at 0 and 2
  sim.run(1);
  RenderOptions options;
  options.show_edges = false;
  const std::string line = render_configuration(sim.trace(), 0, options);
  // Columns: node 0 has a robot, node 2 has a robot.
  const auto strip = line.substr(10);
  EXPECT_EQ(strip[0], '1');
  EXPECT_EQ(strip[1], '.');
  EXPECT_EQ(strip[2], '1');
  EXPECT_EQ(strip[3], '.');
  EXPECT_EQ(strip[4], '.');
}

TEST(RenderTest, TowersShowMultiplicity) {
  const Ring ring(4);
  Simulator sim(ring, make_algorithm("keep-direction"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                {{2, Chirality(true)}, {0, Chirality(false)}});
  sim.run(1);  // both now on node 1
  RenderOptions options;
  options.show_edges = false;
  const std::string line = render_configuration(sim.trace(), 1, options);
  EXPECT_NE(line.find('2'), std::string::npos);
}

TEST(RenderTest, MissingEdgesRenderAsGaps) {
  const Ring ring(4);
  auto cut = std::make_shared<SurgerySchedule>(
      std::make_shared<StaticSchedule>(ring),
      std::vector<Removal>{{1, 0, kTimeInfinity}});
  Simulator sim(ring, make_algorithm("keep-direction"), make_oblivious(cut),
                {{0, Chirality(true)}});
  sim.run(1);
  RenderOptions options;
  const std::string line = render_configuration(sim.trace(), 0, options);
  // Strip layout: node0 edge0 node1 edge1 node2 edge2 node3 [wrap].
  const auto strip = line.substr(10);
  EXPECT_EQ(strip[1], '-');  // edge 0 present
  EXPECT_EQ(strip[3], ' ');  // edge 1 cut
  EXPECT_EQ(strip[5], '-');  // edge 2 present
}

TEST(RenderTest, HighlightedEdgeMarked) {
  auto sim = make_sim(6, 1);
  sim.run(2);
  RenderOptions options;
  options.highlight_edge = 2;
  const std::string line = render_configuration(sim.trace(), 0, options);
  EXPECT_NE(line.find('|'), std::string::npos);
}

TEST(RenderTest, FullTraceRespectsMaxLines) {
  auto sim = make_sim(5, 1);
  sim.run(200);
  RenderOptions options;
  options.max_lines = 20;
  std::ostringstream out;
  render_trace(out, sim.trace(), options);
  std::size_t lines = 0;
  for (char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_LE(lines, 22u);  // max_lines + elision marker
  EXPECT_NE(out.str().find("elided"), std::string::npos);
}

TEST(RenderTest, ShortTraceFullyPrinted) {
  auto sim = make_sim(4, 1);
  sim.run(5);
  std::ostringstream out;
  render_trace(out, sim.trace());
  std::size_t lines = 0;
  for (char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 6u);  // configurations 0..5
  EXPECT_EQ(out.str().find("elided"), std::string::npos);
}

}  // namespace
}  // namespace pef
