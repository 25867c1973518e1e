// Certified Unsat verdicts: every native refutation serializes to a
// certificate the standalone checker (tools/proof_check.cpp) accepts, and
// the checker rejects — with a named reason — a certificate corrupted in
// any single ingredient (dropped clause, perturbed Farkas multiplier,
// swapped literal, truncated tail). The checker shares nothing with the
// solver beyond the exact-number primitives, so these tests are the
// trust anchor of the whole proof pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "backend_fixture.hpp"
#include "proof_check.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"

namespace advocat::smt {
namespace {

using proofcheck::CheckResult;
using proofcheck::check_proof_text;

/// Collects every certificate of a session in memory.
class CaptureSink : public ProofSink {
 public:
  void on_unsat_certificate(const Certificate& cert) override {
    certs.push_back(cert);
  }
  std::vector<Certificate> certs;
};

/// x ≤ 2 ∧ x ≥ 5: the smallest theory-level contradiction — its
/// certificate must contain a theory lemma with an inline Farkas proof.
void assert_interval_clash(ExprFactory& f, Solver& s) {
  const ExprId x = f.int_var("x");
  s.add(f.le(x, f.int_const(2)));
  s.add(f.le(f.int_const(5), x));
}

TEST(ProofCertificate, IntervalClashCertificateAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_interval_clash(f, *s);
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const Certificate& cert = sink.certs[0];
  EXPECT_EQ(cert.mode, "native");
  EXPECT_TRUE(cert.complete) << cert.reason;
  EXPECT_EQ(cert.proof_bytes, cert.text.size());
  const CheckResult r = check_proof_text(cert.text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  EXPECT_EQ(r.mode, "native");
  // The refutation is theory-level: an inline lemma proof must be there.
  EXPECT_NE(cert.text.find("lem"), std::string::npos);
  EXPECT_NE(cert.text.find("\nf "), std::string::npos);
}

TEST(ProofCertificate, BooleanContradictionCertificateAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId p = f.bool_var("p");
  const ExprId q = f.bool_var("q");
  s->add(f.or_({p, q}));
  s->add(f.or_({p, f.not_(q)}));
  s->add(f.not_(p));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofCertificate, TriviallyUnsatCertificateAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId p = f.bool_var("p");
  s->add(f.and_({p, f.not_(p)}));  // translation derives the empty clause
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofCertificate, SatCheckEmitsNoCertificate) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  s->add(f.le(x, f.int_const(10)));
  ASSERT_EQ(s->check(), SatResult::Sat);
  EXPECT_TRUE(sink.certs.empty());
}

TEST(ProofCertificate, IncrementalSessionCertifiesEveryUnsat) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  s->add(f.le(x, f.int_const(4)));
  s->add(f.le(f.int_const(0), x));
  // Probe a shrinking capacity: y ≥ k under x + y ≤ 4 ∧ y ≥ x ∧ x ≥ 3.
  s->add(f.le(f.int_const(3), x));
  s->add(f.le(f.add({x, y}), f.int_const(4)));
  for (int k = 0; k <= 3; ++k) {
    const SatResult r = s->check_assuming({f.le(f.int_const(k), y)});
    EXPECT_EQ(r, k <= 1 ? SatResult::Sat : SatResult::Unsat) << "k=" << k;
  }
  ASSERT_EQ(sink.certs.size(), 2u);  // k = 2 and k = 3
  for (const Certificate& cert : sink.certs) {
    EXPECT_TRUE(cert.complete) << cert.reason;
    const CheckResult r = check_proof_text(cert.text);
    EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  }
}

TEST(ProofCertificate, AssumptionRefutationCertified) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  s->add(f.le(x, f.int_const(7)));
  ASSERT_EQ(s->check_assuming({f.le(f.int_const(9), x)}), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

// Equalities whose refutation is integer-only (the rows are rationally
// feasible) certify on bounded domains of any width the leaf's simplex
// search covers: parity x = 2y ∧ x = 2z+1 with 0 ≤ x ≤ W, and a random
// 3-variable system over [0, 60] (seed 1881 of a random bounded-system
// generator) that the simplex decides only with its full branch budget.
// The counters pin which path refutes: on a narrow domain tightening walks
// x's bounds until its budget runs out, the violated-row scan finds the
// crossed row, and the rationally feasible rows leave the asserted atoms
// as the explanation (an integer conflict); on a wide one the leaf's
// simplex refutes.
TEST(ProofCertificate, EqualityAndDisequalityCertified) {
  struct Case {
    const char* name;
    std::function<void(ExprFactory&, Solver&)> assert_all;
    std::uint64_t integer_conflicts;
    std::uint64_t leaves_refuted;
  };
  auto parity = [](std::int64_t w) {
    return [w](ExprFactory& f, Solver& s) {
      const ExprId x = f.int_var("x");
      const ExprId y = f.int_var("y");
      const ExprId z = f.int_var("z");
      s.add(f.eq(x, f.mul_const(2, y)));
      s.add(f.eq(x, f.add({f.mul_const(2, z), f.int_const(1)})));
      s.add(f.le(f.int_const(0), x));
      s.add(f.le(x, f.int_const(w)));
    };
  };
  const std::vector<Case> cases = {
      {"parity W=20", parity(20), 1, 0},
      {"parity W=200", parity(200), 1, 0},
      {"parity W=2000", parity(2000), 0, 1},
      {"seed 1881",
       [](ExprFactory& f, Solver& s) {
         // 2a − 3b − 3c = −150 ∧ −3a + 2b − 3c = −137, a, b, c ∈ [0, 60].
         const ExprId a = f.int_var("a");
         const ExprId b = f.int_var("b");
         const ExprId c = f.int_var("c");
         s.add(f.eq(f.add({f.mul_const(2, a), f.mul_const(-3, b),
                           f.mul_const(-3, c)}),
                    f.int_const(-150)));
         s.add(f.eq(f.add({f.mul_const(-3, a), f.mul_const(2, b),
                           f.mul_const(-3, c)}),
                    f.int_const(-137)));
         for (const ExprId v : {a, b, c}) {
           s.add(f.le(f.int_const(0), v));
           s.add(f.le(v, f.int_const(60)));
         }
       },
       0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExprFactory f;
    auto s = make_solver(f, Backend::Native);
    CaptureSink sink;
    s->set_proof_sink(&sink);
    c.assert_all(f, *s);
    EXPECT_EQ(s->check(), SatResult::Unsat);
    if (sink.certs.size() != 1) {
      ADD_FAILURE() << sink.certs.size() << " certificates";
      continue;
    }
    EXPECT_TRUE(sink.certs[0].complete) << sink.certs[0].reason;
    const CheckResult r = check_proof_text(sink.certs[0].text);
    EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
    EXPECT_EQ(s->solve_stats().conflicts_interval_integer,
              c.integer_conflicts);
    EXPECT_EQ(s->solve_stats().leaves_refuted, c.leaves_refuted);
  }
}

TEST(ProofCertificate, MidSessionAttachMarkedIncomplete) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  const ExprId x = f.int_var("x");
  s->add(f.le(x, f.int_const(2)));
  ASSERT_EQ(s->check(), SatResult::Sat);  // unlogged check
  CaptureSink sink;
  s->set_proof_sink(&sink);
  s->add(f.le(f.int_const(5), x));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  EXPECT_FALSE(sink.certs[0].complete);
  EXPECT_FALSE(sink.certs[0].reason.empty());
}

TEST(ProofCertificate, LoggingDoesNotPerturbDeterministicStats) {
  // The certification pipeline must be observation-only: the same
  // (sequential, hence deterministic) check with and without a sink
  // returns the same verdict and bit-identical search statistics.
  auto run = [](bool with_sink, SolveStats& stats) {
    ExprFactory f;
    auto s = make_solver(f, Backend::Native);
    CaptureSink sink;
    if (with_sink) s->set_proof_sink(&sink);
    const ExprId x = f.int_var("x");
    const ExprId y = f.int_var("y");
    s->add(f.le(f.add({f.mul_const(3, x), f.mul_const(5, y)}),
                f.int_const(14)));
    s->add(f.le(f.int_const(2), x));
    s->add(f.le(f.int_const(2), y));
    const SatResult r = s->check();
    stats = s->solve_stats();
    return r;
  };
  SolveStats with{};
  SolveStats without{};
  ASSERT_EQ(run(true, with), SatResult::Unsat);
  ASSERT_EQ(run(false, without), SatResult::Unsat);
  EXPECT_EQ(with.decisions, without.decisions);
  EXPECT_EQ(with.conflicts, without.conflicts);
  EXPECT_EQ(with.propagations, without.propagations);
  EXPECT_EQ(with.restarts, without.restarts);
  EXPECT_EQ(with.learned_clauses, without.learned_clauses);
}

// ------------------------------------------------------- mutation tests
// Every certificate ingredient, corrupted one at a time, must be caught
// and named. The base certificate is a real solver artifact, not a
// hand-written fixture, so the mutations track the live grammar.

std::string interval_clash_certificate() {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_interval_clash(f, *s);
  EXPECT_EQ(s->check(), SatResult::Unsat);
  EXPECT_EQ(sink.certs.size(), 1u);
  return sink.certs.empty() ? std::string() : sink.certs[0].text;
}

TEST(ProofMutation, BaseCertificateAccepted) {
  const CheckResult r = check_proof_text(interval_clash_certificate());
  ASSERT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofMutation, DroppedProblemClauseRejected) {
  std::string text = interval_clash_certificate();
  // Drop the first `assume` hypothesis: the refutation loses a premise.
  const std::size_t at = text.find("\nassume ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t eol = text.find('\n', at + 1);
  text.erase(at, eol - at);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == "qed-failed" || r.reason == "rup-failed" ||
              r.reason == "ctx-underived" || r.reason == "lemma-unproven")
      << r.reason;
}

TEST(ProofMutation, PerturbedFarkasMultiplierRejected) {
  std::string text = interval_clash_certificate();
  // First Farkas step: "f <n> <ref> <num> <den> ..." — scale the first
  // multiplier's numerator so the combination no longer cancels.
  const std::size_t at = text.find("\nf ");
  ASSERT_NE(at, std::string::npos);
  std::size_t sp = text.find(' ', at + 3);   // after <n>
  ASSERT_NE(sp, std::string::npos);
  sp = text.find(' ', sp + 1);               // after <ref>
  ASSERT_NE(sp, std::string::npos);
  text.insert(sp + 1, "7");  // 1 -> 71, or any num -> 7num
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-invalid-farkas") << r.detail;
}

TEST(ProofMutation, SwappedLiteralRejected) {
  std::string text = interval_clash_certificate();
  // Negate the first literal of the first lemma clause: its inline proof
  // no longer matches the premises.
  const std::size_t at = text.find("\nlem ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t lit = at + 5;
  if (text[lit] == '-') {
    text.erase(lit, 1);
  } else {
    text.insert(lit, "-");
  }
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == "lemma-bad-ref" ||
              r.reason == "lemma-invalid-farkas" ||
              r.reason == "lemma-open-branch" || r.reason == "qed-failed")
      << r.reason;
}

TEST(ProofMutation, TruncatedTailRejected) {
  std::string text = interval_clash_certificate();
  const std::size_t qed = text.rfind("qed");
  ASSERT_NE(qed, std::string::npos);
  text.resize(qed);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "truncated") << r.detail;
}

TEST(ProofMutation, TruncatedLemmaBodyRejected) {
  std::string text = interval_clash_certificate();
  // Cut everything from the first proof step to the lemma's `end`: the
  // branch is left open.
  const std::size_t f_at = text.find("\nf ");
  ASSERT_NE(f_at, std::string::npos);
  const std::size_t end_at = text.find("\nend", f_at);
  ASSERT_NE(end_at, std::string::npos);
  text.erase(f_at, end_at - f_at);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-open-branch") << r.detail;
}

TEST(ProofMutation, UnprovenLemmaRejected) {
  std::string text = interval_clash_certificate();
  const std::size_t f_at = text.find("\nf ");
  ASSERT_NE(f_at, std::string::npos);
  const std::size_t end_at = text.find("\nend", f_at);
  ASSERT_NE(end_at, std::string::npos);
  text.replace(f_at, end_at - f_at, "\nunproven");
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-unproven") << r.detail;
}

TEST(ProofMutation, GarbageHeaderRejected) {
  const CheckResult r = check_proof_text("not a proof\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "bad-header");
}

TEST(ProofMutation, AttestedCertificateAcceptedAsAttested) {
  const CheckResult r =
      check_proof_text("advocat-proof 1\nmode attested z3\nqed\n");
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.mode, "attested");
}

}  // namespace
}  // namespace advocat::smt
