// Certified Unsat verdicts: every native refutation serializes to a
// certificate the standalone checker (tools/proof_check.cpp) accepts, and
// the checker rejects — with a named reason — a certificate corrupted in
// any single ingredient (dropped clause, perturbed Farkas multiplier,
// swapped literal, truncated tail). The checker shares nothing with the
// solver beyond the exact-number primitives, so these tests are the
// trust anchor of the whole proof pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "advocat/verifier.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_abstract.hpp"
#include "proof_check.hpp"
#include "smt/expr.hpp"
#include "smt/proof.hpp"
#include "smt/solver.hpp"
#include "util/fault.hpp"

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

// Two ints sized by a growing session: each round adds root bounds (which
// land at level 0) and then refutes an assumption only the level-0 rows
// contradict. The level-0 facts grow between the Unsat checks, and each
// lemma lists the ones its proof reads.
std::vector<Certificate> growing_context_certificates() {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  s->add(f.le(f.int_const(0), x));
  s->add(f.le(x, f.int_const(10)));
  EXPECT_EQ(s->check_assuming({f.le(f.int_const(11), x)}), SatResult::Unsat);
  s->add(f.le(f.int_const(0), y));
  s->add(f.le(y, x));
  EXPECT_EQ(s->check_assuming({f.le(f.int_const(11), y)}), SatResult::Unsat);
  return sink.certs;
}

std::size_t count_lines(const std::string& text, const std::string& head) {
  std::size_t n = 0;
  for (std::size_t at = text.find("\n" + head + " "); at != std::string::npos;
       at = text.find("\n" + head + " ", at + 1)) {
    ++n;
  }
  return n;
}

TEST(ProofCertificate, GrowingContextCertifiesEveryUnsat) {
  const std::vector<Certificate> certs = growing_context_certificates();
  ASSERT_EQ(certs.size(), 2u);
  for (const Certificate& cert : certs) {
    EXPECT_TRUE(cert.complete) << cert.reason;
    const CheckResult r = check_proof_text(cert.text);
    EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  }
}

TEST(ProofCertificate, BoundsBeyondInt64Certified) {
  // x ≥ 2w ≥ 10^19 and x ≤ y + z ≤ 8·10^18: each atom fits in 64 bits,
  // but the lower bound tightening derives on x does not, so certifier
  // and checker both leave their __int128 path for BigInt.
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  const ExprId z = f.int_var("z");
  const ExprId w = f.int_var("w");
  s->add(f.le(f.mul_const(2, w), x));
  s->add(f.le(x, f.add({y, z})));
  s->add(f.le(f.int_const(5'000'000'000'000'000'000), w));
  s->add(f.le(y, f.int_const(4'000'000'000'000'000'000)));
  s->add(f.le(z, f.int_const(4'000'000'000'000'000'000)));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const Certificate& cert = sink.certs[0];
  EXPECT_TRUE(cert.complete) << cert.reason;
  EXPECT_NE(cert.text.find("lem"), std::string::npos);
  const CheckResult r = check_proof_text(cert.text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  // With y, z ≤ 5·10^18 both bounds on x are 10^19, beyond 64 bits, and
  // meet without crossing: the same proof must no longer close.
  std::string weaker = cert.text;
  for (int k = 0; k < 2; ++k) {
    const std::size_t at = weaker.find(" le 4000000000000000000 ");
    ASSERT_NE(at, std::string::npos);
    weaker[at + 4] = '5';
  }
  const CheckResult w_r = check_proof_text(weaker);
  EXPECT_FALSE(w_r.ok);
  EXPECT_EQ(w_r.reason, "lemma-invalid-farkas") << w_r.detail;
}

// A bigint_alloc fault that arrives while an Unsat is certified aborts
// that certificate into the attested stub and nothing else: the verdicts
// stand, the next search never sees the fault, and the next certificate
// carries the aborted one's records. Three copies of one shape, each added
// just before its own check: x ≥ 100w ≥ 10^19 with x ≤ y + z, refuted by
// the assumptions y, z ≤ 4·10^17. With u ≥ 0 the atom x + u ≥ 1 of a
// non-unit clause is entailed below the first decision, so its reason is
// logged; that lemma has no hint, and tightening it derives x ≥ 10^19,
// beyond 64 bits, so certifying the check allocates.
TEST(ProofCertificate, FaultDuringCertificationYieldsOneStub) {
  struct Run {
    std::vector<SatResult> verdicts;
    std::vector<std::uint64_t> arrivals;  // bigint_alloc, after each check
    std::vector<Certificate> certs;
  };
  // Every `spec` below counts arrivals; a huge arrival number never fires.
  auto run = [](const std::string& spec, bool logged) {
    util::fault::configure(spec.c_str());
    ExprFactory f;
    auto s = make_solver(f, Backend::Native);
    CaptureSink sink;
    if (logged) s->set_proof_sink(&sink);
    Run r;
    for (int k = 0; k < 3; ++k) {
      const std::string n = std::to_string(k);
      const ExprId x = f.int_var("x" + n);
      const ExprId y = f.int_var("y" + n);
      const ExprId z = f.int_var("z" + n);
      const ExprId w = f.int_var("w" + n);
      const ExprId u = f.int_var("u" + n);
      s->add(f.le(x, f.add({y, z})));
      s->add(f.le(f.mul_const(100, w), x));
      s->add(f.le(f.int_const(100'000'000'000'000'000), w));
      s->add(f.le(f.int_const(0), u));
      s->add(f.or_({f.le(f.int_const(1), f.add({x, u})),
                    f.bool_var("p" + n)}));
      r.verdicts.push_back(
          s->check_assuming({f.le(y, f.int_const(400'000'000'000'000'000)),
                             f.le(z, f.int_const(400'000'000'000'000'000))}));
      r.arrivals.push_back(util::fault::arrivals(util::fault::Site::kBigIntAlloc));
    }
    r.certs = sink.certs;
    util::fault::configure("");
    return r;
  };
  const std::string counting = "bigint_alloc@1000000000000";
  const Run search = run(counting, false);
  const Run clean = run(counting, true);
  ASSERT_EQ(clean.verdicts, std::vector<SatResult>(3, SatResult::Unsat));
  ASSERT_EQ(clean.certs.size(), 3u);
  // The first arrival of the second certification comes after the first
  // check (search and certification) and the second check's search.
  const std::uint64_t at =
      clean.arrivals[0] + (search.arrivals[1] - search.arrivals[0]) + 1;
  ASSERT_LE(at, clean.arrivals[1]) << "the second certification allocates";
  const Run faulted = run("bigint_alloc@" + std::to_string(at), true);

  EXPECT_EQ(faulted.verdicts, clean.verdicts);
  ASSERT_EQ(faulted.certs.size(), 3u);
  EXPECT_EQ(faulted.certs[1].text,
            "advocat-proof 3\nmode attested native-aborted\nqed\n");
  EXPECT_FALSE(faulted.certs[1].complete);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_TRUE(faulted.certs[i].complete) << faulted.certs[i].reason;
    EXPECT_EQ(faulted.certs[i].text, clean.certs[i].text) << "certificate " << i;
    const CheckResult r = check_proof_text(faulted.certs[i].text);
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

// x = 2y ∧ x = 2z+1 with 0 ≤ x ≤ w: rationally feasible, integer-infeasible.
void assert_parity(ExprFactory& f, Solver& s, std::int64_t w) {
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  const ExprId z = f.int_var("z");
  s.add(f.eq(x, f.mul_const(2, y)));
  s.add(f.eq(x, f.add({f.mul_const(2, z), f.int_const(1)})));
  s.add(f.le(f.int_const(0), x));
  s.add(f.le(x, f.int_const(w)));
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
// simplex refutes. The split counts pin how many of the certifier's
// bisections the lemmas without a Farkas hint need (0 once tightening
// alone crosses a bound). Each lemma is tightened from empty bounds over
// its own rows, with 64 visits per row: W=2000's leaf lemma lists six rows,
// so every branch gets 384 visits before it is bisected.
TEST(ProofCertificate, EqualityAndDisequalityCertified) {
  struct Case {
    const char* name;
    std::function<void(ExprFactory&, Solver&)> assert_all;
    std::uint64_t integer_conflicts;
    std::uint64_t leaves_refuted;
    std::size_t splits;  // the certificate's bisecting splits
  };
  auto parity = [](std::int64_t w) {
    return [w](ExprFactory& f, Solver& s) { assert_parity(f, s, w); };
  };
  const std::vector<Case> cases = {
      {"parity W=20", parity(20), 1, 0, 0},
      {"parity W=200", parity(200), 1, 0, 1},
      {"parity W=2000", parity(2000), 0, 1, 15},
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
       0, 1, 57},
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
    EXPECT_EQ(sink.certs[0].splits, count_lines(sink.certs[0].text, "s"));
    EXPECT_EQ(sink.certs[0].splits, c.splits);
  }
}

// On the MI meshes no lemma needs a search: a Farkas conflict's proof is
// the solver's own combination, and every other lemma crosses a bound by
// tightening from the lemma's rows. Each lemma body is therefore one `f`
// line; an `s` line would mean a lemma fell back to bisection. Above the
// assumption prefix only the entailment reasons conflict analysis reads
// are logged, which keeps the final certificate (whose trace is the
// session's) under 1,000 lemmas (704).
TEST(ProofCertificate, MeshSizingNeedsNoSearch) {
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.width = 3;
    config.height = 3;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  CaptureSink sink;
  core::QueueSizingOptions o;
  o.verify.backend = Backend::Native;
  o.verify.proof_sink = &sink;
  EXPECT_EQ(core::find_minimal_queue_size(make, o).minimal_capacity, 11u);
  ASSERT_FALSE(sink.certs.empty());
  std::size_t lemmas = 0;
  for (const Certificate& cert : sink.certs) {
    EXPECT_TRUE(cert.complete) << cert.reason;
    const CheckResult r = check_proof_text(cert.text);
    EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
    EXPECT_EQ(count_lines(cert.text, "s"), 0u);
    EXPECT_EQ(cert.splits, 0u);
    std::istringstream in(cert.text);
    std::string line, body, end;
    while (std::getline(in, line)) {
      if (line.rfind("lem ", 0) != 0) continue;
      ++lemmas;
      ASSERT_TRUE(std::getline(in, body) && std::getline(in, end));
      EXPECT_EQ(body.rfind("f ", 0), 0u) << body;
      EXPECT_EQ(end, "end") << line;
    }
  }
  EXPECT_GT(lemmas, 0u);
  EXPECT_LT(count_lines(sink.certs.back().text, "lem"), 1'000u);
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
              r.reason == "lemma-unproven")
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
  // 1 -> 71, or any num -> 7num
  text.insert(text.begin() + static_cast<std::ptrdiff_t>(sp + 1), '7');
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
    text.insert(text.begin() + static_cast<std::ptrdiff_t>(lit), '-');
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

// The line of `text` that starts at `at` (which follows a newline),
// including its newline.
std::string line_at(const std::string& text, std::size_t at) {
  return text.substr(at, text.find('\n', at) + 1 - at);
}

TEST(ProofMutation, PremiseRefPastThePremisesRejected) {
  std::string text = growing_context_certificates().back().text;
  // Point the first Farkas term at a premise index no lemma has.
  const std::size_t at = text.find("\nf ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t ref = text.find(' ', at + 3) + 1;  // after <n>
  const std::size_t ref_end = text.find(' ', ref);
  text.replace(ref, ref_end - ref, "p999");
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-bad-ref") << r.detail;
}

// The integer conflict of parity W=20 is logged with every asserted atom,
// level 0 included: its proof tightens x's bounds until they cross, which
// needs x ≤ 20. With that literal dropped from the `lem` line, no premise
// row supplies the bound, so the lemma no longer proves itself.
TEST(ProofMutation, LemmaLeaningOnAnUnlistedFactRejected) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_parity(f, *s, 20);
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(s->solve_stats().conflicts_interval_integer, 1u);
  ASSERT_EQ(sink.certs.size(), 1u);
  std::string text = sink.certs[0].text;
  ASSERT_TRUE(check_proof_text(text).ok);
  // The atom x ≤ 20 (`atom <v> le 20 1 <x> 1`), asserted at level 0.
  const std::size_t atom_at = text.find(" le 20 1 ");
  ASSERT_NE(atom_at, std::string::npos);
  const std::size_t var_at = text.rfind("atom ", atom_at) + 5;
  const std::string lit =
      " -" + text.substr(var_at, atom_at - var_at) + " ";
  ASSERT_NE(text.find("\nassume " + lit.substr(2) + "0\n"), std::string::npos)
      << "x <= 20 is asserted";
  const std::size_t lem = text.find("\nlem ");
  ASSERT_NE(lem, std::string::npos);
  const std::size_t drop = text.find(lit, lem);
  ASSERT_LT(drop, text.find('\n', lem + 1)) << "the lemma lists x <= 20";
  text.erase(drop, lit.size() - 1);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == "lemma-bad-ref" ||
              r.reason == "lemma-invalid-farkas")
      << r.reason << ": " << r.detail;
}

TEST(ProofMutation, VersionTwoHeaderRejected) {
  std::string text = interval_clash_certificate();
  ASSERT_EQ(text.rfind("advocat-proof 3\n", 0), 0u);
  text.replace(0, 15, "advocat-proof 2");
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "bad-header") << r.detail;
}

TEST(ProofMutation, DelLineRejected) {
  // The grammar has no deletions and no level-0 context: a `del` or a
  // `ctx` line is not skipped but refused.
  for (const char* head : {"del", "ctx"}) {
    std::string text = interval_clash_certificate();
    const std::size_t at = text.find("\nlem ");
    ASSERT_NE(at, std::string::npos);
    text.insert(at + 1, head + line_at(text, at + 1).substr(3));
    const CheckResult r = check_proof_text(text);
    EXPECT_FALSE(r.ok) << head;
    EXPECT_EQ(r.reason, "parse-error") << head << ": " << r.detail;
  }
}

TEST(ProofMutation, RepeatedAtomRejected) {
  std::string text = interval_clash_certificate();
  // Define the first atom twice: a variable has one meaning per
  // certificate, so even an identical second definition is refused.
  const std::size_t at = text.find("\natom ");
  ASSERT_NE(at, std::string::npos);
  const std::string atom = line_at(text, at + 1);
  text.insert(at + 1, atom);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "parse-error") << r.detail;
}

TEST(ProofMutation, RepeatedNintsRejected) {
  for (const char* sizes : {"nvars 1\nnints 0\nnints 0\n",
                            "nvars 1\nnints 1\nnints 1\n"}) {
    const CheckResult r = check_proof_text(
        std::string("advocat-proof 3\nmode native\n") + sizes +
        "in 0\nqed\n");
    EXPECT_FALSE(r.ok) << sizes;
    EXPECT_EQ(r.reason, "parse-error") << sizes;
  }
}

TEST(ProofMutation, OversizedCountsRejected) {
  // Sizes beyond the index range are a rejection, not an allocation.
  for (const char* sizes : {"nvars 999999999999999\n",
                            "nvars 1\nnints 999999999999999\n"}) {
    const CheckResult r = check_proof_text(
        std::string("advocat-proof 3\nmode native\n") + sizes + "qed\n");
    EXPECT_FALSE(r.ok) << sizes;
    EXPECT_EQ(r.reason, "parse-error") << sizes;
  }
}

// A hand-written lemma whose bounds only converge one unit per visit:
// premises x − y ≤ −1 and y − x ≤ 0, with 0 ≤ x, y ≤ 10^6. Tightening
// would need about 10^6 visits to cross x's bounds, far past the 64 visits
// per premise row (6 rows), so a checker without that stop would accept
// `f 2 lo0 1 1 hi0 1 1`.
std::string slow_tightening_certificate(const std::string& body) {
  return "advocat-proof 3\nmode native\nnvars 6\nnints 2\n"
         "atom 1 le -1 2 0 1 1 -1\n"  // x − y ≤ −1
         "atom 2 le 0 2 1 1 0 -1\n"   // y − x ≤ 0
         "atom 3 le 0 1 0 -1\n"       // x ≥ 0
         "atom 4 le 1000000 1 0 1\n"  // x ≤ 10^6
         "atom 5 le 0 1 1 -1\n"       // y ≥ 0
         "atom 6 le 1000000 1 1 1\n"  // y ≤ 10^6
         "in 3 0\nin 4 0\nin 5 0\nin 6 0\nassume 1 0\nassume 2 0\n"
         "lem -1 -2 -3 -4 -5 -6 0\n" +
         body + "\nend\nqed\n";
}

TEST(ProofMutation, TighteningStopsAtTheVisitBudget) {
  const CheckResult crossing =
      check_proof_text(slow_tightening_certificate("f 2 lo0 1 1 hi0 1 1"));
  EXPECT_FALSE(crossing.ok);
  EXPECT_EQ(crossing.reason, "lemma-invalid-farkas") << crossing.detail;
  const CheckResult farkas =
      check_proof_text(slow_tightening_certificate("f 2 p0 1 1 p1 1 1"));
  EXPECT_TRUE(farkas.ok) << farkas.reason << ": " << farkas.detail;
}

// The checker tightens a branch only when its step reads a derived bound,
// and it finds one anywhere in the step: here `lo0` (x ≥ 5, from p1) is
// the third term, after two premises (x + y ≤ 3 and y ≥ 0).
TEST(ProofMutation, DerivedBoundPastTheFirstTermAccepted) {
  const CheckResult r = check_proof_text(
      "advocat-proof 3\nmode native\nnvars 3\nnints 2\n"
      "atom 1 le 3 2 0 1 1 1\n"  // x + y ≤ 3
      "atom 2 le -5 1 0 -1\n"    // x ≥ 5
      "atom 3 le 0 1 1 -1\n"     // y ≥ 0
      "in 1 0\nin 2 0\nin 3 0\n"
      "lem -1 -2 -3 0\nf 3 p0 1 1 p2 1 1 lo0 1 1\nend\nqed\n");
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  EXPECT_EQ(r.mode, "native");
}

TEST(ProofMutation, GarbageHeaderRejected) {
  const CheckResult r = check_proof_text("not a proof\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "bad-header");
}

TEST(ProofMutation, AttestedCertificateAcceptedAsAttested) {
  const CheckResult r =
      check_proof_text("advocat-proof 3\nmode attested z3\nqed\n");
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.mode, "attested");
}

// ----------------------------------------------------------- file sink

Certificate text_certificate(const std::string& text) {
  Certificate cert;
  cert.text = text;
  cert.proof_bytes = text.size();
  return cert;
}

TEST(FileProofSink, WritesNumberedCertificates) {
  const std::string prefix = ::testing::TempDir() + "file_sink_test_";
  native::FileProofSink sink(prefix);
  sink.on_unsat_certificate(text_certificate("first\n"));
  sink.on_unsat_certificate(text_certificate("second\n"));
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.failed(), 0u);
  EXPECT_EQ(sink.total_bytes(), 13u);
  std::ifstream in(prefix + "2.proof");
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "second");
  std::remove((prefix + "1.proof").c_str());
  std::remove((prefix + "2.proof").c_str());
}

TEST(FileProofSink, UnwritableCertificateIsCounted) {
  native::FileProofSink sink(::testing::TempDir() +
                             "no_such_directory/file_sink_test_");
  sink.on_unsat_certificate(text_certificate("lost\n"));
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.failed(), 1u);
}

}  // namespace
}  // namespace advocat::smt
