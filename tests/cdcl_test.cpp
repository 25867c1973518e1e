// CDCL behavior of the native solver: clause learning is active and
// persists across retracted assumptions and between incremental checks,
// backjumping and restarts produce correct verdicts, the search is
// deterministic, the learned-clause database is bounded by deletion, and
// degraded searches (unbounded domains, timeouts) answer Unknown — never
// a wrong Unsat.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "backend_fixture.hpp"
#include "smt/eval.hpp"
#include "helpers.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"
#include "util/budget.hpp"
#include "util/stopwatch.hpp"

namespace advocat::smt {
namespace {

// The CDCL suite always runs with the solver invariant auditor on (unless
// the caller set ADVOCAT_AUDIT explicitly): every backjump, restart, and
// check boundary here deep-checks the search state (smt/audit.hpp).
const int kAuditOn = [] {
  ::setenv("ADVOCAT_AUDIT", "1", /*overwrite=*/0);
  return 0;
}();

TEST(Cdcl, LearnsClausesAndKeepsThemAcrossPop) {
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);

  const std::vector<ExprId> php = testing::pigeonhole(f, 7, 6, "php_");
  ASSERT_EQ(solver->check_assuming(php), SatResult::Unsat);
  const SolveStats first = solver->solve_stats();
  EXPECT_GT(first.conflicts, 0u);
  EXPECT_GT(first.learned_clauses, 0u);
  EXPECT_GT(first.learned_kept, 0u);

  // The retracted formula's learned clauses survive: they mention the
  // assumptions' negations explicitly, so they stay valid — and make the
  // same query much cheaper the second time.
  ASSERT_EQ(solver->check_assuming(php), SatResult::Unsat);
  const SolveStats second = solver->solve_stats();
  EXPECT_GT(second.learned_kept, 0u);
  EXPECT_LT(second.conflicts - first.conflicts, first.conflicts)
      << "re-checking the retracted formula should reuse learned clauses";

  // And those clauses do not poison an unrelated satisfiable query.
  const ExprId x = f.int_var("x");
  solver->add(f.le(f.int_const(2), x));
  solver->add(f.le(x, f.int_const(5)));
  ASSERT_EQ(solver->check(), SatResult::Sat);
  EXPECT_GE(solver->model().int_value("x"), 2);
  EXPECT_LE(solver->model().int_value("x"), 5);
}

TEST(Cdcl, LearningCarriesAcrossAssumptionProbes) {
  // The incremental-session pattern: one formula, capacity-style probes as
  // assumption flips. Learned clauses from earlier probes must persist
  // (they may mention the assumption atoms, which is sound) and speed up
  // later probes instead of being discarded with the assumptions.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  for (ExprId c : testing::pigeonhole(f, 7, 6, "php_")) solver->add(c);
  const ExprId guard = f.bool_var("cdcl_guard");

  ASSERT_EQ(solver->check_assuming({guard}), SatResult::Unsat);
  const SolveStats first = solver->solve_stats();
  EXPECT_GT(first.learned_kept, 0u);

  ASSERT_EQ(solver->check_assuming({f.not_(guard)}), SatResult::Unsat);
  const SolveStats second = solver->solve_stats();
  EXPECT_LT(second.conflicts - first.conflicts, first.conflicts)
      << "the second probe should start from the first probe's clauses";
  EXPECT_GT(second.learned_hits, first.learned_hits)
      << "the reuse must be visible as prior-clause hits, not just fewer "
         "conflicts";
}

TEST(Cdcl, BackjumpsOverIrrelevantDecisionsCorrectly) {
  // A long chain of free variables (decision fodder) plus a contradiction
  // reachable only through the chain's tail: conflict analysis must jump
  // back over the irrelevant decisions and still produce exact verdicts
  // in both directions.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  const int kChain = 24;
  std::vector<ExprId> chain;
  for (int i = 0; i < kChain; ++i) {
    chain.push_back(f.bool_var("link" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < kChain; ++i) {
    solver->add(f.implies(chain[static_cast<std::size_t>(i)],
                          chain[static_cast<std::size_t>(i + 1)]));
  }
  const ExprId x = f.int_var("bj_x");
  solver->add(f.implies(chain.back(), f.le(f.int_const(7), x)));
  solver->add(f.implies(chain.back(), f.le(x, f.int_const(3))));
  solver->add(f.le(f.int_const(0), x));
  solver->add(f.le(x, f.int_const(10)));

  // Asserting the chain head forces the contradiction at its tail.
  ASSERT_EQ(solver->check_assuming({chain.front()}), SatResult::Unsat);
  // Without the assumption the formula is satisfiable — and the model
  // must actually satisfy every assertion (cross-checked by evaluation).
  ASSERT_EQ(solver->check(), SatResult::Sat);
  const Model& m = solver->model();
  EXPECT_FALSE(m.bool_value("link0"));  // the chain head cannot hold
  EXPECT_TRUE(eval_bool(
      f, m, f.implies(chain.back(), f.le(f.int_const(7), x))));
}

TEST(Cdcl, RestartsAreDeterministic) {
  // No randomness anywhere: two fresh solvers on the same session must
  // walk the identical search, restart for restart, conflict for conflict.
  auto run = [](SolveStats& out) {
    ExprFactory f;
    auto solver = make_solver(f, Backend::Native);
    for (ExprId c : testing::pigeonhole(f, 8, 7, "php_")) solver->add(c);
    const SatResult r = solver->check();
    out = solver->solve_stats();
    return r;
  };
  SolveStats a, b;
  ASSERT_EQ(run(a), SatResult::Unsat);
  ASSERT_EQ(run(b), SatResult::Unsat);
  EXPECT_GT(a.restarts, 0u) << "PHP(8,7) must be hard enough to restart";
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.learned_clauses, b.learned_clauses);
  EXPECT_EQ(a.deleted_clauses, b.deleted_clauses);
}

TEST(Cdcl, DeletesLearnedClausesUnderPressure) {
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  for (ExprId c : testing::pigeonhole(f, 8, 7, "php_")) solver->add(c);
  ASSERT_EQ(solver->check(), SatResult::Unsat);
  const SolveStats& s = solver->solve_stats();
  EXPECT_GT(s.deleted_clauses, 0u)
      << "LBD/activity reduction should have trimmed the database";
  EXPECT_LT(s.learned_kept, s.learned_clauses);
}

TEST(Cdcl, RefutesUnboundedInfeasibleSystemsExactly) {
  // x <= y - 1 and y <= x - 1 is infeasible but unbounded: the interval
  // fixpoint diverges (PR 4 degraded exactly this shape to Unknown by
  // design). The simplex theory layer now refutes it outright — the
  // Farkas combination of the two rows is 0 <= -2 — and reports the
  // effort through the new SolveStats fields.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  const ExprId x = f.int_var("u_x");
  const ExprId y = f.int_var("u_y");
  solver->add(f.le(x, f.add({y, f.int_const(-1)})));
  solver->add(f.le(y, f.add({x, f.int_const(-1)})));
  EXPECT_EQ(solver->check(), SatResult::Unsat);
  EXPECT_GT(solver->solve_stats().farkas_explanations, 0u)
      << "the refutation must come from a Farkas certificate";

  // The refutation is the cycle, not blanket pessimism: relaxing one side
  // leaves a satisfiable system.
  ExprFactory f2;
  auto relaxed = make_solver(f2, Backend::Native);
  const ExprId x2 = f2.int_var("u_x");
  const ExprId y2 = f2.int_var("u_y");
  relaxed->add(f2.le(x2, f2.add({y2, f2.int_const(-1)})));
  relaxed->add(f2.le(f2.int_const(3), y2));
  ASSERT_EQ(relaxed->check(), SatResult::Sat);
}

TEST(Cdcl, IntegerDivisibilityCutRefutesAtTranslation) {
  // 2x = 2y + 1 has no integer solution (gcd(2,2) does not divide 1); the
  // theory layer's divisibility cut decides the atom at translation time,
  // so neither polarity needs any search.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  const ExprId x = f.int_var("g_x");
  const ExprId y = f.int_var("g_y");
  const ExprId odd =
      f.eq(f.mul_const(2, x), f.add({f.mul_const(2, y), f.int_const(1)}));
  EXPECT_EQ(solver->check_assuming({odd}), SatResult::Unsat);
  solver->add(f.not_(odd));  // the disequality is an integer tautology
  EXPECT_EQ(solver->check(), SatResult::Sat);
}

TEST(Cdcl, DegradedIntegerOpenSearchStaysUnknown) {
  // 2x - 2y <= 1 and 2y - 2x <= -1 pin x - y to the rational value 1/2:
  // rationally feasible, integer-infeasible, unbounded — and split across
  // two inequality atoms, so the single-atom divisibility cut cannot see
  // it. Branch-on-rational-vertex cannot close an unbounded fractional
  // line within its budget either; the solver must degrade to Unknown
  // instead of guessing. (This replaces the pre-simplex divergence
  // exemplar x <= y-1, y <= x-1, which the theory now refutes exactly.)
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  const ExprId x = f.int_var("u_x");
  const ExprId y = f.int_var("u_y");
  solver->add(f.le(f.add({f.mul_const(2, x), f.mul_const(-2, y)}),
                   f.int_const(1)));
  solver->add(f.le(f.add({f.mul_const(2, y), f.mul_const(-2, x)}),
                   f.int_const(-1)));
  EXPECT_EQ(solver->check(), SatResult::Unknown);

  // And a tainted check never contaminates the next one: with bounds the
  // same shape is refuted exactly (finite enumeration closes the line).
  solver->add(f.le(f.int_const(0), x));
  solver->add(f.le(x, f.int_const(8)));
  solver->add(f.le(f.int_const(0), y));
  solver->add(f.le(y, f.int_const(8)));
  EXPECT_EQ(solver->check(), SatResult::Unsat);
}

// Differential fuzz on random incremental sessions over bounded linear
// arithmetic. Two fresh native solvers always run every session in
// lockstep: the search is fully deterministic, so their verdicts AND
// statistics must match step for step — a seed-determinism cross-check
// that keeps this target meaningful in the no-Z3 configuration, where it
// used to skip silently and test nothing. When the Z3 oracle is available
// a Z3 session joins the lockstep and every definite verdict must agree
// across backends. The oracle half is the harness that caught a real
// soundness bug during development (provenance explanations built over
// the mutable current-source graph lost the grounding bound of
// self-referential tightening laps and learned a clause the theory did
// not entail); it pins the chronological-log fix.
TEST(Cdcl, DifferentialFuzzAcrossBackendsAndSeeds) {
  const bool with_z3 = backend_available(Backend::Z3);
  std::mt19937_64 master(20260728);
  for (int round = 0; round < 200; ++round) {
    std::mt19937_64 rng(master());
    ExprFactory f;
    std::vector<ExprId> ivars, bvars;
    for (int i = 0; i < 4; ++i) {
      ivars.push_back(f.int_var("fz_x" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
      bvars.push_back(f.bool_var("fz_p" + std::to_string(i)));
    }
    std::uniform_int_distribution<int> coeff(-3, 3);
    std::uniform_int_distribution<int> constd(-8, 8);
    std::uniform_int_distribution<std::size_t> pick_i(0, ivars.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_b(0, bvars.size() - 1);
    std::function<ExprId(int)> formula = [&](int depth) -> ExprId {
      switch (std::uniform_int_distribution<int>(0, depth > 0 ? 5 : 1)(rng)) {
        case 0: {
          std::vector<ExprId> terms;
          const int n = std::uniform_int_distribution<int>(1, 3)(rng);
          for (int i = 0; i < n; ++i) {
            int c = coeff(rng);
            if (c == 0) c = 1;
            terms.push_back(f.mul_const(c, ivars[pick_i(rng)]));
          }
          const ExprId lhs = f.add(terms);
          const ExprId rhs = f.int_const(constd(rng));
          return (rng() & 1) != 0 ? f.le(lhs, rhs) : f.eq(lhs, rhs);
        }
        case 1: return bvars[pick_b(rng)];
        case 2: return f.not_(formula(depth - 1));
        case 3: return f.and_({formula(depth - 1), formula(depth - 1)});
        case 4: return f.or_({formula(depth - 1), formula(depth - 1)});
        default: return f.implies(formula(depth - 1), formula(depth - 1));
      }
    };
    // solvers[0] and [1] are the native determinism twins; [2] is Z3.
    std::vector<std::unique_ptr<Solver>> solvers;
    solvers.push_back(make_solver(f, Backend::Native));
    solvers.push_back(make_solver(f, Backend::Native));
    if (with_z3) solvers.push_back(make_solver(f, Backend::Z3));
    auto add_all = [&](ExprId e) {
      for (auto& s : solvers) s->add(e);
    };
    auto expect_twins_in_sync = [&](const char* what) {
      const SolveStats& a = solvers[0]->solve_stats();
      const SolveStats& b = solvers[1]->solve_stats();
      EXPECT_EQ(a.conflicts, b.conflicts) << what << " round " << round;
      EXPECT_EQ(a.decisions, b.decisions) << what << " round " << round;
      EXPECT_EQ(a.propagations, b.propagations) << what << " round " << round;
      EXPECT_EQ(a.learned_clauses, b.learned_clauses)
          << what << " round " << round;
      EXPECT_EQ(a.theory_pivots, b.theory_pivots) << what << " round " << round;
      EXPECT_EQ(a.farkas_explanations, b.farkas_explanations)
          << what << " round " << round;
    };
    // Three rounds in four get bounded domains, where the native solver is
    // complete: it never answers Unknown. The fourth leaves the variables
    // unbounded so the sessions exercise the simplex theory layer — Farkas
    // refutations, divisibility cuts, branch-on-vertex — where Unknown is
    // tolerated but any definite verdict must still match the oracle.
    const bool bounded = round % 4 != 3;
    if (bounded) {
      for (ExprId v : ivars) {
        add_all(f.le(f.int_const(-6), v));
        add_all(f.le(v, f.int_const(6)));
      }
    }
    const int asserts = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int i = 0; i < asserts; ++i) add_all(formula(3));
    // A stack of retractable formulas: a push op appends one, a pop op
    // drops the last, and every check assumes the whole stack.
    std::vector<ExprId> scoped;
    const int ops = std::uniform_int_distribution<int>(2, 5)(rng);
    for (int i = 0; i < ops; ++i) {
      switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
        case 0:
          scoped.push_back(formula(2));
          break;
        case 1:
          if (!scoped.empty()) scoped.pop_back();
          break;
        case 2: {
          std::vector<ExprId> a = scoped;
          a.push_back(formula(2));
          const SatResult rn = solvers[0]->check_assuming(a);
          ASSERT_EQ(rn, solvers[1]->check_assuming(a))
              << "native twins diverged, round " << round;
          expect_twins_in_sync("check_assuming");
          // The native solver may degrade an unbounded search to Unknown
          // (documented); definite verdicts must agree with the oracle
          // exactly.
          if (bounded) {
            EXPECT_NE(rn, SatResult::Unknown) << "bounded round " << round;
          }
          if (with_z3 && rn != SatResult::Unknown) {
            ASSERT_EQ(rn, solvers[2]->check_assuming(a))
                << "round " << round;
          }
          break;
        }
        default: {
          const SatResult rn = solvers[0]->check_assuming(scoped);
          ASSERT_EQ(rn, solvers[1]->check_assuming(scoped))
              << "native twins diverged, round " << round;
          expect_twins_in_sync("check");
          if (bounded) {
            EXPECT_NE(rn, SatResult::Unknown) << "bounded round " << round;
          }
          if (with_z3 && rn != SatResult::Unknown) {
            ASSERT_EQ(rn, solvers[2]->check_assuming(scoped))
                << "round " << round;
          }
        }
      }
    }
  }
}

TEST(Cdcl, TimeoutReturnsUnknownPromptly) {
  // The deadline must be honored inside every search loop (satellite fix:
  // it used to be overshot badly in the tightening/branch-and-bound
  // loops). PHP(11,10) takes far longer than the 50ms budget.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  for (ExprId c : testing::pigeonhole(f, 11, 10, "php_")) solver->add(c);
  solver->set_budget({.deadline_ms = 50});
  util::Stopwatch watch;
  EXPECT_EQ(solver->check(), SatResult::Unknown);
  EXPECT_LT(watch.seconds(), 5.0) << "timeout overshot by >100x";
}

TEST(Cdcl, EveryBudgetKindDegradesWithItsOwnReasonAndClearsCleanly) {
  // The PR6 deadline-leak regression, generalized to every budget kind:
  // a check stopped by any ceiling answers Unknown with the matching
  // StopReason, and clearing the budget re-arms the same session — no
  // ceiling may leak into the follow-up check.
  struct Case {
    const char* name;
    util::ResourceBudget budget;
    util::StopReason reason;
  };
  const Case cases[] = {
      {"deadline", {.deadline_ms = 1}, util::StopReason::kDeadline},
      {"conflicts", {.max_conflicts = 1}, util::StopReason::kConflictBudget},
      {"decisions", {.max_decisions = 1}, util::StopReason::kDecisionBudget},
      {"propagations",
       {.max_propagations = 1},
       util::StopReason::kPropagationBudget},
      {"memory", {.max_memory_bytes = 1}, util::StopReason::kMemoryCeiling},
  };
  for (const Case& c : cases) {
    ExprFactory f;
    auto solver = make_solver(f, Backend::Native);
    for (ExprId cl : testing::pigeonhole(f, 9, 8, "php_")) solver->add(cl);
    solver->set_budget(c.budget);
    ASSERT_EQ(solver->check(), SatResult::Unknown)
        << "PHP(9,8) must not fit inside the tight " << c.name << " budget";
    EXPECT_EQ(solver->solve_stats().stop_reason, c.reason) << c.name;
    // Budget cleared, same live session: the definite verdict comes back
    // and the stats no longer carry a reason.
    solver->set_budget({});
    EXPECT_EQ(solver->check(), SatResult::Unsat) << c.name << " budget leaked";
    EXPECT_EQ(solver->solve_stats().stop_reason, util::StopReason::kNone)
        << c.name;
  }
}

// Integer pigeonhole: p pigeons x_i in [0, h), pairwise distinct. Unsat
// for p > h, and refuted through entailed atoms: every distinctness
// disjunct is a bound the intervals can entail.
std::vector<ExprId> int_pigeonhole(ExprFactory& f, int pigeons, int holes) {
  std::vector<ExprId> constraints;
  std::vector<ExprId> x;
  for (int p = 0; p < pigeons; ++p) {
    x.push_back(f.int_var("iph_x" + std::to_string(p)));
    constraints.push_back(f.le(f.int_const(0), x.back()));
    constraints.push_back(f.le(x.back(), f.int_const(holes - 1)));
  }
  for (std::size_t a = 0; a < x.size(); ++a) {
    for (std::size_t b = a + 1; b < x.size(); ++b) {
      constraints.push_back(f.not_(f.eq(x[a], x[b])));
    }
  }
  return constraints;
}

TEST(Cdcl, StopInsideConflictAnalysisLeavesTheSessionReusable) {
  // Explaining an entailed literal polls the cancellation point, so a
  // budget can stop a check inside conflict analysis: its conflict is
  // counted, its clause not yet learned. The sweep moves a propagation
  // budget across every poll of each search; after each stop the same
  // session re-checks with the auditor on, whose check-begin pass
  // (analysis-scratch) aborts on an analysis flag the stop left set.
  int stops = 0;
  int in_analysis = 0;
  for (const auto& [pigeons, holes] : {std::pair{5, 4}, std::pair{6, 5}}) {
    std::uint64_t budget = 1;
    for (;;) {
      ExprFactory f;
      auto solver = make_solver(f, Backend::Native);
      for (ExprId c : int_pigeonhole(f, pigeons, holes)) solver->add(c);
      solver->set_budget({.max_propagations = budget});
      if (solver->check() != SatResult::Unknown) break;  // search fits
      const SolveStats s = solver->solve_stats();
      ASSERT_EQ(s.stop_reason, util::StopReason::kPropagationBudget);
      ++stops;
      if (s.conflicts == s.learned_clauses + 1) ++in_analysis;
      budget = s.propagations + 1;
      solver->set_budget({});
      ASSERT_EQ(solver->check(), SatResult::Unsat)
          << pigeons << " pigeons, budget " << budget;
    }
  }
  // 3 of the 110 stops land in analysis; this keeps the sweep honest.
  EXPECT_GT(in_analysis, 0) << "no stop of " << stops << " hit analysis";
}

TEST(Cdcl, CrossThreadCancelInterruptsAndReArms) {
  // cancel() from another thread must stop an in-flight check promptly
  // with Unknown(cancelled), and — like the budget kinds above — must not
  // leak into the next check on the same session.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  for (ExprId c : testing::pigeonhole(f, 11, 10, "php_")) solver->add(c);
  util::Stopwatch watch;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    solver->cancel();
  });
  const SatResult r = solver->check();
  canceller.join();
  EXPECT_EQ(r, SatResult::Unknown);
  EXPECT_EQ(solver->solve_stats().stop_reason, util::StopReason::kCancelled);
  EXPECT_LT(watch.seconds(), 5.0) << "cancel() not observed promptly";
  // The cancel flag re-arms per check: the follow-up must run for its own
  // deadline (a leaked flag would return Unknown(cancelled) instantly).
  solver->set_budget({.deadline_ms = 50});
  util::Stopwatch again;
  EXPECT_EQ(solver->check(), SatResult::Unknown);
  EXPECT_EQ(solver->solve_stats().stop_reason, util::StopReason::kDeadline)
      << "stale cancellation leaked into the next check";
  EXPECT_GT(again.millis(), 10.0)
      << "follow-up check died instantly — cancel flag leaked";
}

TEST(Cdcl, TightBudgetDifferentialOutcomesAcrossBackends) {
  // Both backends under the same tight discrete budget: definite verdicts
  // must agree, every Unknown must carry a non-empty StopReason, and the
  // native determinism twins must stay in lockstep even while degrading.
  const bool with_z3 = backend_available(Backend::Z3);
  std::mt19937_64 master(20260809);
  for (int round = 0; round < 24; ++round) {
    std::mt19937_64 rng(master());
    ExprFactory f;
    const int pigeons = std::uniform_int_distribution<int>(4, 7)(rng);
    const auto clauses = testing::pigeonhole(f, pigeons, pigeons - 1, "php_");
    util::ResourceBudget budget;
    budget.max_conflicts = std::uniform_int_distribution<std::uint64_t>(
        1, 40)(rng);
    std::vector<std::unique_ptr<Solver>> solvers;
    solvers.push_back(make_solver(f, Backend::Native));
    solvers.push_back(make_solver(f, Backend::Native));
    if (with_z3) solvers.push_back(make_solver(f, Backend::Z3));
    std::vector<SatResult> verdicts;
    for (auto& s : solvers) {
      for (ExprId c : clauses) s->add(c);
      s->set_budget(budget);
      verdicts.push_back(s->check());
    }
    // Native twins: identical verdict AND identical stop reason — the
    // budget cut must be deterministic, not timing-dependent.
    ASSERT_EQ(verdicts[0], verdicts[1]) << "round " << round;
    EXPECT_EQ(solvers[0]->solve_stats().stop_reason,
              solvers[1]->solve_stats().stop_reason)
        << "round " << round;
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      if (verdicts[i] == SatResult::Unknown) {
        EXPECT_NE(solvers[i]->solve_stats().stop_reason,
                  util::StopReason::kNone)
            << "silent budgeted Unknown, backend " << i << " round " << round;
      } else {
        EXPECT_EQ(verdicts[i], SatResult::Unsat)
            << "backend " << i << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace advocat::smt
