// Packed clause arena behavior of the native solver: mid-search GC /
// compaction actually fires, survives the deep invariant auditor, keeps
// verdicts and statistics deterministic, and keeps incremental sessions
// (assumption probes across compactions) sound.
//
// The whole suite runs with ADVOCAT_AUDIT=1 (deep state checks at every
// backjump, restart, and check boundary — including the arena walk,
// watch-blocker, and waste-accounting invariants in smt/audit.cpp) and an
// artificially tiny ADVOCAT_REDUCE_BASE so clause-DB reductions — and with
// them tombstoning and arena compaction — trigger on test-sized inputs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "proof_check.hpp"
#include "helpers.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"

namespace advocat::smt {
namespace {

const int kEnvSetup = [] {
  ::setenv("ADVOCAT_AUDIT", "1", /*overwrite=*/0);
  // Reduce the learned DB every ~32 surviving clauses: test-sized runs
  // then perform many reductions, each tombstoning into the arena, which
  // makes the 50%-waste compaction trigger fire repeatedly.
  ::setenv("ADVOCAT_REDUCE_BASE", "32", /*overwrite=*/0);
  ::setenv("ADVOCAT_REDUCE_INC", "32", /*overwrite=*/0);
  return 0;
}();

TEST(Arena, CompactionFiresUnderChurnAndAuditStaysGreen) {
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  for (ExprId c : testing::pigeonhole(f, 7, 6, "ar_")) solver->add(c);
  ASSERT_EQ(solver->check(), SatResult::Unsat);

  const SolveStats& s = solver->solve_stats();
  EXPECT_GT(s.conflicts, 0u);
  EXPECT_GT(s.deleted_clauses, 0u)
      << "tiny ADVOCAT_REDUCE_BASE should force clause-DB reductions";
  EXPECT_GT(s.arena_compactions, 0u)
      << "reductions tombstone into the arena; crossing 50% waste must GC";
  EXPECT_GT(s.arena_bytes, 0u) << "the problem clauses alone occupy words";
}

TEST(Arena, GcRoundTripIsDeterministic) {
  // Two independent sessions over the same formula must agree on the
  // verdict AND every counter — compaction rewrites refs but may not
  // change which clauses exist, their order, or the search trajectory.
  SolveStats runs[2];
  for (SolveStats& out : runs) {
    ExprFactory f;
    auto solver = make_solver(f, Backend::Native);
    for (ExprId c : testing::pigeonhole(f, 7, 6, "ar_")) solver->add(c);
    ASSERT_EQ(solver->check(), SatResult::Unsat);
    out = solver->solve_stats();
  }
  EXPECT_EQ(runs[0].conflicts, runs[1].conflicts);
  EXPECT_EQ(runs[0].decisions, runs[1].decisions);
  EXPECT_EQ(runs[0].propagations, runs[1].propagations);
  EXPECT_EQ(runs[0].restarts, runs[1].restarts);
  EXPECT_EQ(runs[0].learned_clauses, runs[1].learned_clauses);
  EXPECT_EQ(runs[0].deleted_clauses, runs[1].deleted_clauses);
  EXPECT_EQ(runs[0].learned_kept, runs[1].learned_kept);
  EXPECT_EQ(runs[0].arena_compactions, runs[1].arena_compactions);
  EXPECT_EQ(runs[0].arena_bytes, runs[1].arena_bytes);
}

TEST(Arena, IncrementalProbesSurviveCompaction) {
  // Assumption probes across checks: clauses learned before a compaction
  // must still propagate afterwards (refs remapped, not dropped), and a
  // final satisfiable probe must produce a correct model.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  for (ExprId c : testing::pigeonhole(f, 7, 6, "ar_")) solver->add(c);
  const ExprId guard = f.bool_var("ar_guard");

  ASSERT_EQ(solver->check_assuming({guard}), SatResult::Unsat);
  const SolveStats first = solver->solve_stats();
  ASSERT_EQ(solver->check_assuming({f.not_(guard)}), SatResult::Unsat);
  const SolveStats second = solver->solve_stats();
  EXPECT_GT(second.learned_hits, 0u)
      << "clauses learned before the check boundary (which rebuilds the "
         "arena) must still fire in the next probe";
  EXPECT_LT(second.conflicts - first.conflicts, first.conflicts)
      << "probe 2 should be much cheaper than probe 1 via clause reuse";

  // A satisfiable query on the same session: deletion/compaction churn
  // must never lose the ability to answer Sat with a sound model.
  ExprFactory f2;
  auto solver2 = make_solver(f2, Backend::Native);
  for (ExprId c : testing::pigeonhole(f2, 6, 6, "ar_")) solver2->add(c);
  ASSERT_EQ(solver2->check(), SatResult::Sat);
}

TEST(Arena, CompactionPreservedAcrossPushPop) {
  // Retractable variant: learn + compact under assumptions, retract them,
  // and re-solve. The boundary rebuild drops tainted clauses and rewrites
  // the arena; the re-run must be cheaper (clause reuse) and still correct.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);

  const std::vector<ExprId> php = testing::pigeonhole(f, 7, 6, "ar_");
  ASSERT_EQ(solver->check_assuming(php), SatResult::Unsat);
  const SolveStats first = solver->solve_stats();
  EXPECT_GT(first.arena_compactions, 0u);

  ASSERT_EQ(solver->check_assuming(php), SatResult::Unsat);
  const SolveStats second = solver->solve_stats();
  EXPECT_LT(second.conflicts - first.conflicts, first.conflicts);
}

struct CaptureSink : ProofSink {
  void on_unsat_certificate(const Certificate& cert) override {
    certs.push_back(cert);
  }
  std::vector<Certificate> certs;
};

TEST(Arena, CertifiedAcrossReductions) {
  // One session, two guarded refutations: boolean pigeonhole (RUP steps)
  // and integer pigeonhole (theory lemmas), under the tiny reduction
  // schedule. A reduction logs nothing, so every certificate is complete,
  // accepted, and carries no `del` line.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  CaptureSink sink;
  solver->set_proof_sink(&sink);
  const ExprId boolean = f.bool_var("ar_boolean");
  for (ExprId c : testing::pigeonhole(f, 7, 6, "ar_")) solver->add(f.implies(boolean, c));
  const ExprId integer = f.bool_var("ar_integer");
  constexpr std::size_t kPigeons = 5;  // integers in [0, kPigeons - 2]
  std::vector<ExprId> x;
  for (std::size_t p = 0; p < kPigeons; ++p) {
    x.push_back(f.int_var("ar_x" + std::to_string(p)));
    solver->add(f.implies(integer, f.le(f.int_const(0), x.back())));
    solver->add(
        f.implies(integer, f.le(x.back(), f.int_const(kPigeons - 2))));
  }
  for (std::size_t p = 0; p < kPigeons; ++p) {
    for (std::size_t q = p + 1; q < kPigeons; ++q) {
      const ExprId below = f.le(f.add({x[p], f.int_const(1)}), x[q]);
      const ExprId above = f.le(f.add({x[q], f.int_const(1)}), x[p]);
      solver->add(f.implies(integer, f.or_({below, above})));
    }
  }
  ASSERT_EQ(solver->check_assuming({boolean}), SatResult::Unsat);
  ASSERT_EQ(solver->check_assuming({integer}), SatResult::Unsat);
  EXPECT_GT(solver->solve_stats().deleted_clauses, 0u);

  ASSERT_EQ(sink.certs.size(), 2u);
  for (const Certificate& cert : sink.certs) {
    EXPECT_TRUE(cert.complete) << cert.reason;
    const proofcheck::CheckResult r =
        proofcheck::check_proof_text(cert.text);
    EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
    EXPECT_EQ(r.mode, "native");
    EXPECT_EQ(cert.text.find("\ndel "), std::string::npos);
  }
  EXPECT_NE(sink.certs[1].text.find("\nlem "), std::string::npos);
}

}  // namespace
}  // namespace advocat::smt
