// Expression factory, SMT-LIB printing, evaluator, and the solver
// backends (native always; Z3 when compiled in — both must agree).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend_fixture.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/smtlib.hpp"
#include "smt/solver.hpp"

namespace advocat::smt {
namespace {

TEST(ExprFactory, HashConsing) {
  ExprFactory f;
  const ExprId a = f.int_var("a");
  const ExprId b = f.int_var("b");
  EXPECT_EQ(f.add({a, b}), f.add({b, a}));  // sorted kids
  EXPECT_EQ(f.int_var("a"), a);
  EXPECT_THROW(f.bool_var("a"), std::logic_error);  // sort clash
}

TEST(ExprFactory, BooleanSimplification) {
  ExprFactory f;
  const ExprId p = f.bool_var("p");
  EXPECT_EQ(f.and_({p, f.bool_const(true)}), p);
  EXPECT_EQ(f.and_({p, f.bool_const(false)}), f.bool_const(false));
  EXPECT_EQ(f.or_({p, f.bool_const(false)}), p);
  EXPECT_EQ(f.or_({p, f.bool_const(true)}), f.bool_const(true));
  EXPECT_EQ(f.not_(f.not_(p)), p);
  EXPECT_EQ(f.and_({}), f.bool_const(true));
  EXPECT_EQ(f.or_({}), f.bool_const(false));
  EXPECT_EQ(f.and_({p, p}), p);  // dedup
}

TEST(ExprFactory, ArithmeticFolding) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  EXPECT_EQ(f.add({f.int_const(2), f.int_const(3)}), f.int_const(5));
  EXPECT_EQ(f.mul_const(0, x), f.int_const(0));
  EXPECT_EQ(f.mul_const(1, x), x);
  EXPECT_EQ(f.mul_const(2, f.mul_const(3, x)), f.mul_const(6, x));
  EXPECT_EQ(f.le(f.int_const(1), f.int_const(2)), f.bool_const(true));
  EXPECT_EQ(f.eq(f.int_const(1), f.int_const(2)), f.bool_const(false));
}

// Past 100K nodes the hash-cons table has grown many times: every id
// keeps its node, and building any node again finds it.
TEST(ExprFactory, IdsStableAndHitsAcrossTableGrowth) {
  ExprFactory f;
  std::vector<ExprId> vars;
  std::vector<ExprId> built;
  for (int i = 0; i < 25'000; ++i) {
    vars.push_back(f.int_var(std::string("x").append(std::to_string(i))));
  }
  for (int i = 0; i < 25'000; ++i) {
    const ExprId x = vars[static_cast<std::size_t>(i)];
    const ExprId y = vars[static_cast<std::size_t>((i * 7919) % 25'000)];
    built.push_back(f.le(f.add({x, f.mul_const(3, y)}), f.int_const(1000 + i)));
  }
  ASSERT_GT(f.size(), 100'000u);
  const std::size_t size = f.size();
  const ExprId first = built.front();
  const Node n = f.node(first);
  EXPECT_EQ(n.op, Op::Le);
  for (int i = 0; i < 25'000; ++i) {
    const ExprId x = vars[static_cast<std::size_t>(i)];
    const ExprId y = vars[static_cast<std::size_t>((i * 7919) % 25'000)];
    EXPECT_EQ(f.le(f.add({f.mul_const(3, y), x}), f.int_const(1000 + i)),
              built[static_cast<std::size_t>(i)]);
    EXPECT_EQ(f.int_var(std::string("x").append(std::to_string(i))), x);
  }
  EXPECT_EQ(f.size(), size);  // every rebuild was a hit
  EXPECT_EQ(f.node(first).kids.data(), n.kids.data());  // hits invalidate nothing
  EXPECT_EQ(f.to_string(f.node(first).kids[1]), "1000");
}

// Cached constants are whatever id the constant got when first built, so
// caching never reorders ids; constants outside the cache hash-cons too.
TEST(ExprFactory, CachedConstantsKeepTheirFirstId) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId sum = f.add({x, f.int_const(5)});
  const ExprId five = f.node(sum).kids[1];
  EXPECT_EQ(five, x + 1);
  EXPECT_EQ(f.int_const(5), five);
  const ExprId big = f.int_const(1'000'000);
  EXPECT_EQ(big, sum + 1);
  EXPECT_EQ(f.int_const(1'000'000), big);
  const ExprId no = f.bool_const(false);
  EXPECT_EQ(no, big + 1);
  EXPECT_EQ(f.and_({f.bool_var("p"), f.bool_const(false)}), no);
  EXPECT_EQ(f.bool_const(true), no + 2);  // after p's node
}

TEST(ExprFactory, RedeclaringWithTheOtherSortThrows) {
  ExprFactory f;
  const ExprId p = f.bool_var("p");
  const ExprId n = f.int_var("n");
  EXPECT_THROW(f.int_var("p"), std::logic_error);
  EXPECT_THROW(f.bool_var("n"), std::logic_error);
  EXPECT_EQ(f.bool_var("p"), p);
  EXPECT_EQ(f.int_var("n"), n);
  EXPECT_EQ(f.variables().size(), 2u);
}

// Node's contract: a view stays valid until a node is created; a lookup
// that finds its node (a hit, a redeclaration) leaves it valid.
TEST(ExprFactory, NodeViewsSurviveLookups) {
  ExprFactory f;
  const ExprId p = f.bool_var("p");
  const ExprId q = f.bool_var("q");
  const ExprId both = f.and_({p, q});
  const Node var = f.node(p);
  const Node conj = f.node(both);
  EXPECT_EQ(var.name, "p");
  ASSERT_EQ(conj.kids.size(), 2u);
  EXPECT_EQ(f.and_({q, p}), both);
  EXPECT_EQ(f.bool_var("p"), p);
  EXPECT_EQ(var.name, "p");
  EXPECT_EQ(var.name.data(), f.node(p).name.data());
  EXPECT_EQ(conj.kids.data(), f.node(both).kids.data());
  EXPECT_EQ(conj.kids[0], p);
  EXPECT_EQ(conj.kids[1], q);
}

TEST(Eval, MatchesExpectedSemantics) {
  ExprFactory f;
  Model m;
  m.set_int("x", 3);
  m.set_bool("p", true);
  const ExprId x = f.int_var("x");
  const ExprId p = f.bool_var("p");
  EXPECT_EQ(eval_int(f, m, f.add({x, f.mul_const(2, x)})), 9);
  EXPECT_TRUE(eval_bool(f, m, f.and_({p, f.le(x, f.int_const(3))})));
  EXPECT_FALSE(eval_bool(f, m, f.not_(p)));
  EXPECT_TRUE(eval_bool(f, m, f.implies(f.not_(p), f.bool_const(false))));
  EXPECT_TRUE(eval_bool(f, m, f.iff(p, f.eq(x, f.int_const(3)))));
  EXPECT_THROW((void)eval_bool(f, m, x), std::logic_error);
}

TEST(SmtLib, DeclaresAndAsserts) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId p = f.bool_var("p[a:b]");  // needs quoting
  const ExprId a = f.and_({p, f.le(f.int_const(0), x)});
  const std::string text = to_smtlib(f, {a});
  EXPECT_NE(text.find("(declare-const x Int)"), std::string::npos);
  EXPECT_NE(text.find("|p[a:b]|"), std::string::npos);
  EXPECT_NE(text.find("(assert"), std::string::npos);
  EXPECT_NE(text.find("(check-sat)"), std::string::npos);
}

TEST(SmtLib, NegativeConstants) {
  ExprFactory f;
  const std::string text =
      to_smtlib(f, {f.eq(f.int_var("x"), f.int_const(-5))});
  EXPECT_NE(text.find("(- 5)"), std::string::npos);
}

// Documented Model behavior: variables the solver left unconstrained
// read as 0 / false, and explicitly set values win.
TEST(Model, UnconstrainedVariablesReadAsZeroAndFalse) {
  Model m;
  EXPECT_EQ(m.int_value("never_mentioned"), 0);
  EXPECT_FALSE(m.bool_value("never_mentioned"));
  m.set_int("x", -7);
  m.set_bool("p", true);
  m.set_bool("q", false);
  EXPECT_EQ(m.int_value("x"), -7);
  EXPECT_TRUE(m.bool_value("p"));
  EXPECT_FALSE(m.bool_value("q"));
  EXPECT_EQ(m.ints().size(), 1u);
  EXPECT_EQ(m.bools().size(), 2u);
}

class SolverBackend : public advocat::testing::BackendTest {};
ADVOCAT_INSTANTIATE_BACKENDS(SolverBackend);

TEST_P(SolverBackend, SatWithModel) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  auto solver = make_solver(f, GetParam());
  solver->add(f.eq(f.add({x, y}), f.int_const(7)));
  solver->add(f.le(f.int_const(3), x));
  solver->add(f.le(x, f.int_const(3)));
  ASSERT_EQ(solver->check(), SatResult::Sat);
  EXPECT_EQ(solver->model().int_value("x"), 3);
  EXPECT_EQ(solver->model().int_value("y"), 4);
}

TEST_P(SolverBackend, Unsat) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  auto solver = make_solver(f, GetParam());
  solver->add(f.le(x, f.int_const(1)));
  solver->add(f.le(f.int_const(2), x));
  EXPECT_EQ(solver->check(), SatResult::Unsat);
}

TEST_P(SolverBackend, BooleanStructure) {
  ExprFactory f;
  const ExprId p = f.bool_var("p");
  const ExprId q = f.bool_var("q");
  auto solver = make_solver(f, GetParam());
  solver->add(f.iff(p, f.not_(q)));
  solver->add(p);
  ASSERT_EQ(solver->check(), SatResult::Sat);
  EXPECT_TRUE(solver->model().bool_value("p"));
  EXPECT_FALSE(solver->model().bool_value("q"));
}

TEST_P(SolverBackend, NegativeCoefficientsAndDisequalities) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  auto solver = make_solver(f, GetParam());
  // 0 <= x,y <= 3, 2x - y = 4, x != 2  →  x = 3, y = 2.
  solver->add(f.le(f.int_const(0), x));
  solver->add(f.le(x, f.int_const(3)));
  solver->add(f.le(f.int_const(0), y));
  solver->add(f.le(y, f.int_const(3)));
  solver->add(f.eq(f.add({f.mul_const(2, x), f.mul_const(-1, y)}),
                   f.int_const(4)));
  solver->add(f.not_(f.eq(x, f.int_const(2))));
  ASSERT_EQ(solver->check(), SatResult::Sat);
  EXPECT_EQ(solver->model().int_value("x"), 3);
  EXPECT_EQ(solver->model().int_value("y"), 2);
}

TEST_P(SolverBackend, CanonicalSignEqualityDedupIsSemantics) {
  // The native atom translation canonicalizes equality signs (Σ = b and
  // −Σ = −b dedup to one theory atom). Pin the semantics around that
  // dedup key: the two renderings must be equivalent (asserting one and
  // the negation of the other is Unsat) ...
  ExprFactory f;
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  auto solver = make_solver(f, GetParam());
  const ExprId pos = f.eq(f.add({f.mul_const(3, x), f.mul_const(-2, y)}),
                          f.int_const(6));
  const ExprId flip = f.eq(f.add({f.mul_const(-3, x), f.mul_const(2, y)}),
                           f.int_const(-6));
  EXPECT_EQ(solver->check_assuming({pos, f.not_(flip)}), SatResult::Unsat);
  solver->add(pos);
  solver->add(flip);
  EXPECT_EQ(solver->check(), SatResult::Sat);
}

TEST_P(SolverBackend, RowAndItsNegationDoNotCollide) {
  // ... while a ≤-row and its sign-flipped counterpart are *different*
  // constraints and must never collide in the dedup: x ≤ 3 and −x ≤ −3
  // (x ≥ 3) intersect exactly at x = 3, and x ≤ 3 with −x ≤ −4 (the
  // negation ¬(x ≤ 3)) is Unsat. A key collision between a row and its
  // negation would flip one of these verdicts.
  ExprFactory f;
  const ExprId x = f.int_var("x");
  auto solver = make_solver(f, GetParam());
  ASSERT_EQ(solver->check_assuming({f.le(x, f.int_const(3)),
                                     f.le(f.mul_const(-1, x),
                                          f.int_const(-3))}),
            SatResult::Sat);
  EXPECT_EQ(solver->model().int_value("x"), 3);
  solver->add(f.le(x, f.int_const(3)));
  solver->add(f.le(f.mul_const(-1, x), f.int_const(-4)));
  EXPECT_EQ(solver->check(), SatResult::Unsat);
}

TEST_P(SolverBackend, UnconstrainedVariableDefaultsToZeroInModel) {
  ExprFactory f;
  const ExprId x = f.int_var("x");
  (void)f.int_var("free");   // declared, never asserted
  (void)f.bool_var("loose");
  auto solver = make_solver(f, GetParam());
  solver->add(f.eq(x, f.int_const(5)));
  ASSERT_EQ(solver->check(), SatResult::Sat);
  EXPECT_EQ(solver->model().int_value("x"), 5);
  EXPECT_EQ(solver->model().int_value("free"), 0);
  EXPECT_FALSE(solver->model().bool_value("loose"));
}

// Round-trip: every model returned by a backend satisfies the asserted
// formula under our reference evaluator.
class SolverRoundTrip
    : public ::testing::TestWithParam<std::tuple<Backend, int>> {};

TEST_P(SolverRoundTrip, ModelSatisfiesAssertions) {
  ExprFactory f;
  const auto [backend, n] = GetParam();
  std::vector<ExprId> assertions;
  std::vector<ExprId> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(f.int_var(std::string("v").append(std::to_string(i))));
    assertions.push_back(f.le(f.int_const(0), vars.back()));
    assertions.push_back(f.le(vars.back(), f.int_const(i + 1)));
  }
  assertions.push_back(f.eq(f.add(vars), f.int_const(n)));
  auto solver = make_solver(f, backend);
  for (ExprId a : assertions) solver->add(a);
  ASSERT_EQ(solver->check(), SatResult::Sat);
  for (ExprId a : assertions) {
    EXPECT_TRUE(eval_bool(f, solver->model(), a));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SolverRoundTrip,
    ::testing::Combine(
        ::testing::ValuesIn(advocat::testing::solver_backends()),
        ::testing::Values(1, 3, 8, 20)),
    [](const ::testing::TestParamInfo<std::tuple<Backend, int>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace advocat::smt
