// The incremental Solver contract, on every available backend:
// assumption-based checks with automatic retraction, model survival
// across retraction, and native-vs-Z3 verdict agreement on interleaved
// check sequences.
#include <gtest/gtest.h>

#include <vector>

#include "backend_fixture.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"

namespace advocat::smt {
namespace {

class Incremental : public advocat::testing::BackendTest {};
ADVOCAT_INSTANTIATE_BACKENDS(Incremental);

TEST_P(Incremental, AssumptionsAreRetractedPerCheck) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  auto solver = make_solver(f, GetParam());
  solver->add(f.le(f.int_const(0), x));
  solver->add(f.le(x, f.int_const(8)));

  // Unsat under an assumption, Sat again without it: nothing leaked.
  EXPECT_EQ(solver->check_assuming({f.le(f.int_const(9), x)}), SatResult::Unsat);
  EXPECT_EQ(solver->check(), SatResult::Sat);

  // Assumption flips pin different solutions on one live session.
  for (std::int64_t k = 0; k <= 8; k += 4) {
    ASSERT_EQ(solver->check_assuming({f.eq(x, f.int_const(k))}), SatResult::Sat);
    EXPECT_EQ(solver->model().int_value("x"), k);
  }
}

TEST_P(Incremental, LastModelSurvivesPop) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId inner = f.eq(x, f.int_const(7));
  auto solver = make_solver(f, GetParam());
  solver->add(f.le(f.int_const(0), x));

  ASSERT_EQ(solver->check_assuming({inner}), SatResult::Sat);

  // The assumption is retracted, but the model it produced is not, and
  // still satisfies the retracted formula under the reference evaluator.
  ASSERT_TRUE(solver->has_model());
  EXPECT_EQ(solver->model().int_value("x"), 7);
  EXPECT_TRUE(eval_bool(f, solver->model(), inner));

  // A later Unsat check does not clobber the last Sat model either.
  EXPECT_EQ(solver->check_assuming({f.le(x, f.int_const(-1))}), SatResult::Unsat);
  EXPECT_EQ(solver->model().int_value("x"), 7);
}

TEST_P(Incremental, ModelBeforeAnySatCheckThrows) {
  ExprFactory f;
  auto solver = make_solver(f, GetParam());
  EXPECT_FALSE(solver->has_model());
  EXPECT_THROW((void)solver->model(), std::logic_error);
}

TEST_P(Incremental, CountsChecks) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  auto solver = make_solver(f, GetParam());
  solver->add(f.le(f.int_const(0), x));
  EXPECT_EQ(solver->num_checks(), 0u);
  (void)solver->check();
  (void)solver->check_assuming({f.eq(x, f.int_const(1))});
  EXPECT_EQ(solver->num_checks(), 2u);
}

TEST_P(Incremental, DeclarationsPersistAcrossPop) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  auto solver = make_solver(f, GetParam());
  solver->add(f.le(f.int_const(0), x));

  // First mention of y, in an assumption.
  ASSERT_EQ(solver->check_assuming({f.eq(y, f.add({x, f.int_const(1)}))}),
            SatResult::Sat);

  // y's declaration (and each backend's translation of it) survives the
  // retraction; asserting over y works without re-declaration.
  solver->add(f.eq(y, f.int_const(3)));
  ASSERT_EQ(solver->check(), SatResult::Sat);
  EXPECT_EQ(solver->model().int_value("y"), 3);
}

// A deterministic interleaved session: assertions between checks,
// assumptions, retraction. Returns the verdict sequence, which every
// backend must reproduce.
std::vector<SatResult> run_session(ExprFactory& f, Solver& solver) {
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  const ExprId sum = f.eq(f.add({x, y}), f.int_const(4));
  std::vector<SatResult> verdicts;
  solver.add(f.le(f.int_const(0), x));
  solver.add(f.le(x, f.int_const(6)));
  verdicts.push_back(solver.check());
  solver.add(f.le(f.int_const(0), y));
  verdicts.push_back(solver.check_assuming({sum, f.le(f.int_const(5), y)}));
  verdicts.push_back(solver.check_assuming({sum}));
  verdicts.push_back(solver.check_assuming({sum, f.le(f.int_const(7), x)}));
  verdicts.push_back(solver.check_assuming({sum, f.eq(x, f.int_const(4))}));
  verdicts.push_back(solver.check_assuming({f.le(f.int_const(7), x)}));
  return verdicts;
}

// The interleaved session's verdicts are fully determined by the
// constraints, so every backend is held to the same hardcoded expectation
// (no cross-backend skip: the native solver answers for itself, and when
// Z3 is compiled in it must produce the identical sequence).
class InterleavedSession : public advocat::testing::BackendTest {};
ADVOCAT_INSTANTIATE_BACKENDS(InterleavedSession);

TEST_P(InterleavedSession, VerdictsMatchTheGroundTruth) {
  const std::vector<SatResult> expected{
      SatResult::Sat,    // x in [0,6]
      SatResult::Unsat,  // x+y = 4 under y >= 0, y >= 5
      SatResult::Sat,    // x+y = 4 alone
      SatResult::Unsat,  // plus x >= 7 against x <= 6
      SatResult::Sat,    // x+y = 4 with x = 4, y = 0
      SatResult::Unsat,  // x >= 7 alone
  };
  ExprFactory f;
  auto solver = make_solver(f, GetParam());
  EXPECT_EQ(run_session(f, *solver), expected);
}

}  // namespace
}  // namespace advocat::smt
