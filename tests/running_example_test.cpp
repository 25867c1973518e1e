// End-to-end reproduction of the paper's running example (Fig. 1 and the
// Section 1 invariant): typing, invariant generation, deadlock candidates
// without invariants, deadlock freedom with them, and explicit-state
// cross-check.
#include <gtest/gtest.h>

#include "advocat/verifier.hpp"
#include "analysis/analyzer.hpp"
#include "backend_fixture.hpp"
#include "deadlock/encoder.hpp"
#include "helpers.hpp"
#include "invariants/generator.hpp"
#include "linalg/eliminator.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"
#include "smt/smtlib.hpp"
#include "xmas/typing.hpp"

namespace advocat {
namespace {

using testing::RunningExample;

class RunningExampleBackend : public testing::BackendTest {};
ADVOCAT_INSTANTIATE_BACKENDS(RunningExampleBackend);

TEST(RunningExample, ValidatesAndTypes) {
  RunningExample rx;
  EXPECT_FALSE(analysis::analyze(rx.net).has_errors());
  const xmas::Typing typing = xmas::Typing::derive(rx.net);
  // q0 carries requests only, q1 acknowledgments only.
  const auto& q0 = rx.net.prim(rx.q0);
  const auto& q1 = rx.net.prim(rx.q1);
  EXPECT_EQ(typing.of(q0.in[0]), xmas::ColorSet{rx.req});
  EXPECT_EQ(typing.of(q0.out[0]), xmas::ColorSet{rx.req});
  EXPECT_EQ(typing.of(q1.in[0]), xmas::ColorSet{rx.ack});
  EXPECT_EQ(typing.of(q1.out[0]), xmas::ColorSet{rx.ack});
}

// The Section 1 invariant: #q0 + #q1 = S.s1 + T.t0 - 1. Checked as span
// membership: adding the paper's row to the generated equalities must not
// increase the rank.
TEST(RunningExample, FindsThePaperInvariant) {
  RunningExample rx;
  const xmas::Typing typing = xmas::Typing::derive(rx.net);
  inv::InvariantSet set = inv::generate(rx.net, typing);
  ASSERT_FALSE(set.equalities.empty());

  const inv::VarSpace& vars = *set.vars;
  linalg::SparseRow paper;
  paper.add(vars.occ(rx.q0, rx.req), 1);
  paper.add(vars.occ(rx.q1, rx.ack), 1);
  paper.add(vars.state(0, 1), -1);  // S.s1
  paper.add(vars.state(1, 0), -1);  // T.t0
  paper.add_constant(1);

  std::vector<linalg::SparseRow> rows = set.equalities;
  ASSERT_TRUE(linalg::Eliminator::reduce_rref(rows));
  const std::size_t rank_before = rows.size();
  rows.push_back(paper);
  ASSERT_TRUE(linalg::Eliminator::reduce_rref(rows));
  EXPECT_EQ(rows.size(), rank_before)
      << "paper invariant is not implied by the generated set";
}

// One-hot state sums are invariants too.
TEST(RunningExample, FindsOneHotInvariants) {
  RunningExample rx;
  const xmas::Typing typing = xmas::Typing::derive(rx.net);
  inv::InvariantSet set = inv::generate(rx.net, typing);
  const inv::VarSpace& vars = *set.vars;
  for (int a = 0; a < 2; ++a) {
    linalg::SparseRow onehot;
    onehot.add(vars.state(a, 0), 1);
    onehot.add(vars.state(a, 1), 1);
    onehot.add_constant(-1);
    std::vector<linalg::SparseRow> rows = set.equalities;
    linalg::Eliminator::reduce_rref(rows);
    const std::size_t rank = rows.size();
    rows.push_back(onehot);
    linalg::Eliminator::reduce_rref(rows);
    EXPECT_EQ(rows.size(), rank);
  }
}

// Without invariants the block/idle query reports (unreachable) deadlock
// candidates — the two candidates discussed in Section 3.
TEST_P(RunningExampleBackend, WithoutInvariantsReportsCandidates) {
  RunningExample rx;
  core::VerifyOptions options;
  options.use_invariants = false;
  options.backend = GetParam();
  const core::VerifyResult result = core::verify(rx.net, options);
  EXPECT_FALSE(result.deadlock_free());
}

// With cross-layer invariants the system is proven deadlock-free.
TEST_P(RunningExampleBackend, WithInvariantsProvenDeadlockFree) {
  RunningExample rx;
  core::VerifyOptions options;
  options.backend = GetParam();
  const core::VerifyResult result = core::verify(rx.net, options);
  EXPECT_TRUE(result.deadlock_free()) << result.report.to_string();
}

// Explicit-state cross-check: the reachable space is tiny and contains no
// quiescent state.
TEST(RunningExample, ExplicitStateAgreesNoDeadlock) {
  RunningExample rx;
  sim::Simulator simulator(rx.net);
  const sim::ExploreResult result = sim::explore(simulator);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.deadlock.has_value());
  // States: (s,t) automaton pairs x queue fills — small but nontrivial.
  EXPECT_GT(result.states_visited, 3u);
  EXPECT_LT(result.states_visited, 64u);
}

// Queue capacity does not matter for this protocol: it is self-limiting
// (at most one packet in flight). Verify for several capacities.
TEST_P(RunningExampleBackend, DeadlockFreeForAllCapacities) {
  core::VerifyOptions options;
  options.backend = GetParam();
  for (std::size_t cap : {1u, 2u, 5u}) {
    RunningExample rx(cap, cap);
    const core::VerifyResult result = core::verify(rx.net, options);
    EXPECT_TRUE(result.deadlock_free()) << "capacity " << cap;
  }
}

// The full block/idle encoding of the running example round-trips through
// the SMT-LIB2 printer: every variable declared, well-formed framing, no
// crash on the |quoted| occupancy/state names.
TEST(RunningExample, EncodingRoundTripsThroughSmtLib) {
  RunningExample rx;
  const xmas::Typing typing = xmas::Typing::derive(rx.net);
  smt::ExprFactory f;
  deadlock::Encoder encoder(rx.net, typing, f);
  const deadlock::Encoding enc = encoder.encode();
  const std::string text = smt::to_smtlib(f, enc.all_assertions());
  EXPECT_NE(text.find("(set-logic QF_LIA)"), std::string::npos);
  EXPECT_NE(text.find("(check-sat)"), std::string::npos);
  std::size_t declared = 0;
  for (std::size_t at = text.find("(declare-const");
       at != std::string::npos; at = text.find("(declare-const", at + 1)) {
    ++declared;
  }
  EXPECT_EQ(declared, f.variables().size());
  // Occupancy and state variable names need |...| quoting.
  EXPECT_NE(text.find("|"), std::string::npos);
}

}  // namespace
}  // namespace advocat
