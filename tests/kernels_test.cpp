// Truth tables for every robot rule (algorithms/kernels.hpp).
//
// Each table enumerates every Look-phase View (ahead × behind × others),
// plus HasMovedPreviousStep for the PEF_3+ family, and states the expected
// turn and new memory.  The rows are written out by hand from the rule text
// quoted on each kernel case (the paper's Algorithm 1, PEF_2's "point to
// the unique present edge", PEF_1's "point to a present edge" and the
// baselines' one-line rules); no expectation is computed by running a
// kernel.  Every simulator and engine runs these kernels, so these tables
// are what pins the rules themselves.
#include "algorithms/kernels.hpp"

#include <gtest/gtest.h>

#include <bitset>
#include <string>

#include "algorithms/registry.hpp"
#include "common/rng.hpp"

namespace pef {
namespace {

/// One row of a memoryless rule: the View and whether `dir` flips.
struct StatelessRow {
  bool ahead;
  bool behind;
  bool others;
  bool turn;
};

/// One row of a PEF_3+-family rule: the View, HasMovedPreviousStep before
/// Compute, whether `dir` flips, and HasMovedPreviousStep after Compute.
struct Pef3Row {
  bool ahead;
  bool behind;
  bool others;
  bool moved;
  bool turn;
  bool moved_after;
};

View view_of(bool ahead, bool behind, bool others) {
  View v;
  v.exists_edge_ahead = ahead;
  v.exists_edge_behind = behind;
  v.other_robots_on_node = others;
  return v;
}

std::string row_label(const char* name, bool ahead, bool behind, bool others,
                      LocalDirection dir) {
  return std::string(name) + " ahead=" + std::to_string(ahead) +
         " behind=" + std::to_string(behind) +
         " others=" + std::to_string(others) + " dir=" + to_string(dir);
}

/// Runs `name`'s kernel on every row, from both incoming directions, and
/// checks the turn and that the robot's memory is left untouched.  The
/// table must list each of the 8 views exactly once.
void check_stateless(const char* name, const StatelessRow (&table)[8]) {
  std::bitset<8> seen;
  for (const StatelessRow& row : table) {
    const unsigned index = (row.ahead ? 4u : 0u) | (row.behind ? 2u : 0u) |
                           (row.others ? 1u : 0u);
    EXPECT_FALSE(seen.test(index)) << name << ": duplicate row " << index;
    seen.set(index);
  }
  ASSERT_TRUE(seen.all()) << name << ": table misses a view";

  const KernelSpec spec = make_algorithm(name)->kernel();
  for (const StatelessRow& row : table) {
    for (const LocalDirection dir_in :
         {LocalDirection::kLeft, LocalDirection::kRight}) {
      KernelState state;
      init_kernel_state(spec, 0, state);
      const KernelState before = state;
      LocalDirection dir = dir_in;
      kernel_compute(spec, view_of(row.ahead, row.behind, row.others), dir,
                     state);
      const std::string label =
          row_label(name, row.ahead, row.behind, row.others, dir_in);
      EXPECT_EQ(dir, row.turn ? opposite(dir_in) : dir_in) << label;
      EXPECT_EQ(state, before) << label << ": memoryless rule wrote memory";
    }
  }
}

/// Runs `name`'s kernel on every row, from both incoming directions, and
/// checks the turn and the new HasMovedPreviousStep (the rest of the
/// memory must stay as initialized).  The table must list each of the 16
/// (view, HasMovedPreviousStep) inputs exactly once.  The rows with both
/// edges present also pin the byte form BatchEngine's all-edges-present
/// FSYNC pass runs (both_edges_turn<Id>, both_edges_has_moved).
template <KernelId Id>
void check_pef3_family(const char* name, const Pef3Row (&table)[16]) {
  std::bitset<16> seen;
  for (const Pef3Row& row : table) {
    const unsigned index = (row.ahead ? 8u : 0u) | (row.behind ? 4u : 0u) |
                           (row.others ? 2u : 0u) | (row.moved ? 1u : 0u);
    EXPECT_FALSE(seen.test(index)) << name << ": duplicate row " << index;
    seen.set(index);
  }
  ASSERT_TRUE(seen.all()) << name << ": table misses an input";

  const KernelSpec spec = make_algorithm(name)->kernel();
  ASSERT_EQ(spec.id, Id) << name;
  for (const Pef3Row& row : table) {
    if (row.ahead && row.behind) {
      const std::string label = std::string(name) + " both edges, others=" +
                                std::to_string(row.others) +
                                " moved=" + std::to_string(row.moved);
      EXPECT_EQ(both_edges_turn<Id>(row.moved ? 1 : 0, row.others ? 1 : 0),
                row.turn ? 1 : 0)
          << label;
      EXPECT_EQ(both_edges_has_moved, row.moved_after ? 1 : 0) << label;
    }
    for (const LocalDirection dir_in :
         {LocalDirection::kLeft, LocalDirection::kRight}) {
      KernelState state;
      init_kernel_state(spec, 0, state);
      state.has_moved = row.moved ? 1 : 0;
      KernelState expected = state;
      expected.has_moved = row.moved_after ? 1 : 0;
      LocalDirection dir = dir_in;
      kernel_compute(spec, view_of(row.ahead, row.behind, row.others), dir,
                     state);
      const std::string label =
          row_label(name, row.ahead, row.behind, row.others, dir_in) +
          " moved=" + std::to_string(row.moved);
      EXPECT_EQ(dir, row.turn ? opposite(dir_in) : dir_in) << label;
      EXPECT_EQ(state, expected) << label;
    }
  }
}

// keep-direction: "never turn".
TEST(KernelTruthTable, KeepDirection) {
  const StatelessRow table[8] = {
      // ahead  behind  others  turn
      {false, false, false, false},
      {false, false, true, false},
      {false, true, false, false},
      {false, true, true, false},
      {true, false, false, false},
      {true, false, true, false},
      {true, true, false, false},
      {true, true, true, false},
  };
  check_stateless("keep-direction", table);
}

// PEF_1: "dir points to a present edge" — keep dir when its edge is
// present (or when none is), turn when only the other edge is present.
// Robots on the same node play no part.
TEST(KernelTruthTable, Pef1) {
  const StatelessRow table[8] = {
      // ahead  behind  others  turn
      {false, false, false, false},
      {false, false, true, false},
      {false, true, false, true},
      {false, true, true, true},
      {true, false, false, false},
      {true, false, true, false},
      {true, true, false, false},
      {true, true, true, false},
  };
  check_stateless("pef1", table);
}

// bounce: "turn back whenever the pointed edge is absent and the other is
// present".
TEST(KernelTruthTable, Bounce) {
  const StatelessRow table[8] = {
      // ahead  behind  others  turn
      {false, false, false, false},
      {false, false, true, false},
      {false, true, false, true},
      {false, true, true, true},
      {true, false, false, false},
      {true, false, true, false},
      {true, true, false, false},
      {true, true, true, false},
  };
  check_stateless("bounce", table);
}

// PEF_2: "If a robot is isolated on a node with only one adjacent edge,
// then it points to this edge.  Otherwise (none present, both present, or
// the other robot on the same node) it keeps its current direction."  The
// only turn is: alone, pointed edge absent, other edge present.
TEST(KernelTruthTable, Pef2) {
  const StatelessRow table[8] = {
      // ahead  behind  others  turn
      {false, false, false, false},
      {false, false, true, false},
      {false, true, false, true},
      {false, true, true, false},
      {true, false, false, false},
      {true, false, true, false},
      {true, true, false, false},
      {true, true, true, false},
  };
  check_stateless("pef2", table);
}

// PEF_3+, Algorithm 1:
//   1: if HasMovedPreviousStep and ExistsOtherRobotsOnCurrentNode() then
//   2:   dir <- opposite(dir)
//   3: end if
//   4: HasMovedPreviousStep <- ExistsEdge(dir)
// Turn iff moved and others (Rule 3); otherwise keep (Rules 1 and 2).  Line
// 4 reads the new dir: `behind` after a turn, `ahead` otherwise.
TEST(KernelTruthTable, Pef3Plus) {
  const Pef3Row table[16] = {
      // ahead  behind  others  moved | turn  moved_after
      {false, false, false, false, false, false},
      {false, false, false, true, false, false},
      {false, false, true, false, false, false},
      {false, false, true, true, true, false},
      {false, true, false, false, false, false},
      {false, true, false, true, false, false},
      {false, true, true, false, false, false},
      {false, true, true, true, true, true},
      {true, false, false, false, false, true},
      {true, false, false, true, false, true},
      {true, false, true, false, false, true},
      {true, false, true, true, true, false},
      {true, true, false, false, false, true},
      {true, true, false, true, false, true},
      {true, true, true, false, false, true},
      {true, true, true, true, true, true},
  };
  check_pef3_family<KernelId::kPef3Plus>("pef3+", table);
}

// pef3+-no-rule2: Algorithm 1 without the HasMovedPreviousStep guard on
// line 1 — turn iff others, whatever the robot did last round.  Line 4 is
// unchanged.
TEST(KernelTruthTable, Pef3PlusNoRule2) {
  const Pef3Row table[16] = {
      // ahead  behind  others  moved | turn  moved_after
      {false, false, false, false, false, false},
      {false, false, false, true, false, false},
      {false, false, true, false, true, false},
      {false, false, true, true, true, false},
      {false, true, false, false, false, false},
      {false, true, false, true, false, false},
      {false, true, true, false, true, true},
      {false, true, true, true, true, true},
      {true, false, false, false, false, true},
      {true, false, false, true, false, true},
      {true, false, true, false, true, false},
      {true, false, true, true, true, false},
      {true, true, false, false, false, true},
      {true, true, false, true, false, true},
      {true, true, true, false, true, true},
      {true, true, true, true, true, true},
  };
  check_pef3_family<KernelId::kPef3PlusNoRule2>("pef3+-no-rule2", table);
}

// pef3+-no-rule3: Algorithm 1 without lines 1-3 — never turn; line 4 then
// reads the pointed (`ahead`) edge.
TEST(KernelTruthTable, Pef3PlusNoRule3) {
  const Pef3Row table[16] = {
      // ahead  behind  others  moved | turn  moved_after
      {false, false, false, false, false, false},
      {false, false, false, true, false, false},
      {false, false, true, false, false, false},
      {false, false, true, true, false, false},
      {false, true, false, false, false, false},
      {false, true, false, true, false, false},
      {false, true, true, false, false, false},
      {false, true, true, true, false, false},
      {true, false, false, false, false, true},
      {true, false, false, true, false, true},
      {true, false, true, false, false, true},
      {true, false, true, true, false, true},
      {true, true, false, false, false, true},
      {true, true, false, true, false, true},
      {true, true, true, false, false, true},
      {true, true, true, true, false, true},
  };
  check_pef3_family<KernelId::kPef3PlusNoRule3>("pef3+-no-rule3", table);
}

// oscillating (registry period 4): "turn back every `period` rounds
// regardless of the environment" — the 4th, 8th, 12th... Compute turns.
TEST(KernelSequence, OscillatingTurnsEveryFourthRound) {
  const KernelSpec spec = make_algorithm("oscillating")->kernel();
  KernelState state;
  init_kernel_state(spec, 0, state);
  const LocalDirection L = LocalDirection::kLeft;
  const LocalDirection R = LocalDirection::kRight;
  const LocalDirection expected_dir[12] = {L, L, L, R, R, R,
                                           R, L, L, L, L, R};
  const std::uint64_t expected_counter[12] = {1, 2, 3, 0, 1, 2,
                                              3, 0, 1, 2, 3, 0};
  LocalDirection dir = L;
  for (unsigned round = 0; round < 12; ++round) {
    // Cycle through every view: the environment must not matter.
    const View view = view_of((round & 4u) != 0, (round & 2u) != 0,
                              (round & 1u) != 0);
    kernel_compute(spec, view, dir, state);
    EXPECT_EQ(dir, expected_dir[round]) << "round " << round;
    EXPECT_EQ(state.counter, expected_counter[round]) << "round " << round;
    EXPECT_EQ(state.has_moved, 0) << "round " << round;
  }
}

// random-walk: "flip a fair coin each round", robot i's coin being the
// xoshiro256** stream seeded with derive_seed(seed, i, 0x72777761).
TEST(KernelSequence, RandomWalkDrawsEachRobotsDerivedStream) {
  constexpr std::uint64_t kSeed = 42;
  const KernelSpec spec = make_algorithm("random-walk", kSeed)->kernel();
  for (RobotId robot = 0; robot < 4; ++robot) {
    Xoshiro256 coin(derive_seed(kSeed, robot, 0x72777761));
    KernelState state;
    init_kernel_state(spec, robot, state);
    EXPECT_EQ(state.rng, coin) << "robot " << robot;
    LocalDirection dir = LocalDirection::kLeft;
    unsigned turns = 0;
    for (unsigned round = 0; round < 64; ++round) {
      const LocalDirection before = dir;
      const View view = view_of((round & 4u) != 0, (round & 2u) != 0,
                                (round & 1u) != 0);
      kernel_compute(spec, view, dir, state);
      const bool turn = coin.next_bool(0.5);
      turns += turn ? 1 : 0;
      EXPECT_EQ(dir, turn ? opposite(before) : before)
          << "robot " << robot << " round " << round;
      EXPECT_EQ(state.rng, coin) << "robot " << robot << " round " << round;
    }
    // A fair coin over 64 rounds both turns and keeps.
    EXPECT_GT(turns, 0u) << "robot " << robot;
    EXPECT_LT(turns, 64u) << "robot " << robot;
  }
}

}  // namespace
}  // namespace pef
