// Fault-soak suite (PR 9): deterministic fault injection across the
// bounded incremental fuzz corpus. The soak invariant is the PR's
// acceptance criterion: under any fault schedule the solver returns
// either the fault-free reference verdict or Unknown with a non-empty
// StopReason — never a wrong verdict, a crash, or a hang — and the
// session stays usable once the faults are cleared. The suite also pins
// the ADVOCAT_FAULTS spec grammar and the capacity-sizing soundness
// guarantee (a minimal capacity is only ever accepted on its own
// definite Unsat, faults or not).
//
// Schedule count defaults to 200 (the acceptance floor) and is tunable
// via ADVOCAT_SOAK_SCHEDULES for sanitizer jobs, where each schedule
// costs more.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "advocat/verifier.hpp"
#include "coherence/mi_abstract.hpp"
#include "helpers.hpp"
#include "proof_check.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace advocat::smt {
namespace {

namespace fault = util::fault;

// Faults are process-global; every test clears the schedule on exit so a
// latched or repeating fault can never leak into another test.
class FaultGuard {
 public:
  FaultGuard() = default;
  ~FaultGuard() { fault::configure(""); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

int soak_schedules() {
  if (const char* env = std::getenv("ADVOCAT_SOAK_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

// ------------------------------------------------------- spec grammar

TEST(FaultSpec, OneShotFiresExactlyAtItsArrival) {
  FaultGuard guard;
  ASSERT_TRUE(fault::configure("theory_timeout@3"));
  EXPECT_TRUE(fault::enabled());
  EXPECT_FALSE(fault::fire(fault::Site::kTheoryTimeout));
  EXPECT_FALSE(fault::fire(fault::Site::kTheoryTimeout));
  EXPECT_TRUE(fault::fire(fault::Site::kTheoryTimeout));
  EXPECT_FALSE(fault::fire(fault::Site::kTheoryTimeout));
  EXPECT_EQ(fault::arrivals(fault::Site::kTheoryTimeout), 4u);
  // Other sites are untouched by the schedule.
  EXPECT_FALSE(fault::fire(fault::Site::kArenaAlloc));
}

TEST(FaultSpec, RepeatSuffixFiresFromItsArrivalOnward) {
  FaultGuard guard;
  ASSERT_TRUE(fault::configure("bigint_alloc@2+"));
  EXPECT_FALSE(fault::fire(fault::Site::kBigIntAlloc));
  EXPECT_TRUE(fault::fire(fault::Site::kBigIntAlloc));
  EXPECT_TRUE(fault::fire(fault::Site::kBigIntAlloc));
  EXPECT_TRUE(fault::fire(fault::Site::kBigIntAlloc));
}

TEST(FaultSpec, MultipleTokensAndWhitespaceCompose) {
  FaultGuard guard;
  ASSERT_TRUE(fault::configure(" theory_timeout@1 , arena_alloc@2 "));
  EXPECT_TRUE(fault::fire(fault::Site::kTheoryTimeout));
  EXPECT_FALSE(fault::fire(fault::Site::kTheoryTimeout));
  EXPECT_FALSE(fault::fire(fault::Site::kArenaAlloc));
  EXPECT_TRUE(fault::fire(fault::Site::kArenaAlloc));
}

TEST(FaultSpec, BadTokensAreSkippedNotFatal) {
  FaultGuard guard;
  // Unknown site, garbage count, missing '@' — each is skipped with a
  // warning (env-knob convention) while the valid token still installs.
  EXPECT_FALSE(fault::configure("bogus@1,arena_alloc@xyz,oops"));
  EXPECT_FALSE(fault::configure("bigint_alloc@1,bogus@2"));
  EXPECT_TRUE(fault::enabled());  // the valid token survived
  EXPECT_TRUE(fault::fire(fault::Site::kBigIntAlloc));
  // Names of removed sites are unknown sites like any other: skipped,
  // never fatal, and they leave the valid tokens installed.
  EXPECT_FALSE(fault::configure(
      "worker_kill@1,exchange_stall@1,exchange_overflow@1,arena_alloc@1"));
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::fire(fault::Site::kArenaAlloc));
}

TEST(FaultSpec, EmptyAndNullDisable) {
  FaultGuard guard;
  ASSERT_TRUE(fault::configure("arena_alloc@1"));
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::configure(""));
  EXPECT_FALSE(fault::enabled());
  EXPECT_TRUE(fault::configure(nullptr));
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultSpec, DeferLatchesUntilTaken) {
  FaultGuard guard;
  ASSERT_TRUE(fault::configure("arena_alloc@1"));
  EXPECT_FALSE(fault::take_deferred());
  fault::defer(fault::Site::kArenaAlloc);  // arrival 1 → latch
  EXPECT_TRUE(fault::take_deferred());
  EXPECT_FALSE(fault::take_deferred());  // one delivery per latch
  fault::defer(fault::Site::kArenaAlloc);  // arrival 2 → no fault
  EXPECT_FALSE(fault::take_deferred());
}

TEST(FaultSpec, SiteNamesRoundTrip) {
  FaultGuard guard;
  for (unsigned s = 0; s < static_cast<unsigned>(fault::Site::kCount); ++s) {
    const auto site = static_cast<fault::Site>(s);
    const std::string spec = std::string(fault::name(site)) + "@1";
    ASSERT_TRUE(fault::configure(spec.c_str())) << spec;
    EXPECT_TRUE(fault::fire(site)) << spec;
  }
}

// -------------------------------------------------------- soak harness

// Bounded-domain incremental fuzz session, shared by the reference and
// the faulted run: the same seed replays the same assertion DAG and the
// same push/pop/check sequence, where push and pop grow and shrink a stack
// of formulas every check assumes. Bounded domains keep the fault-free
// native solver complete, so reference verdicts are definite and any
// faulted divergence other than Unknown is a soundness bug.
struct FuzzScript {
  explicit FuzzScript(std::uint64_t seed) : rng(seed) {}

  std::mt19937_64 rng;
  // The formula stack after run(): what the final check assumed.
  std::vector<ExprId> scoped;

  // Runs the scripted session on `solver` and returns the verdict of
  // every check in order. `factory` must outlive the solver. With
  // `with_php` a small pigeonhole instance rides along so the session is
  // conflict-rich — otherwise most fault arrivals are never reached and
  // the soak is vacuous.
  std::vector<SatResult> run(ExprFactory& f, Solver& solver, bool with_php) {
    std::vector<ExprId> ivars, bvars;
    for (int i = 0; i < 3; ++i) {
      ivars.push_back(f.int_var("sk_x" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
      bvars.push_back(f.bool_var("sk_p" + std::to_string(i)));
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
    for (ExprId v : ivars) {
      solver.add(f.le(f.int_const(-6), v));
      solver.add(f.le(v, f.int_const(6)));
    }
    if (with_php) {
      for (ExprId c : testing::pigeonhole(f, 6, 5, "fk_")) solver.add(c);
    }
    const int asserts = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int i = 0; i < asserts; ++i) solver.add(formula(3));
    std::vector<SatResult> verdicts;
    const int ops = std::uniform_int_distribution<int>(3, 6)(rng);
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
          verdicts.push_back(solver.check_assuming(a));
          break;
        }
        default: verdicts.push_back(solver.check_assuming(scoped)); break;
      }
    }
    // Every script ends on a check.
    verdicts.push_back(solver.check_assuming(scoped));
    return verdicts;
  }
};

// Random fault schedule: 1–3 tokens over the three fault sites.
std::string random_schedule(std::mt19937_64& rng) {
  static const char* kSites[] = {"arena_alloc", "bigint_alloc",
                                 "theory_timeout"};
  // Arrivals stay low (1–40): the soak scripts are small, so a fault
  // scheduled hundreds of arrivals out would never be reached and the
  // whole schedule would be a no-op.
  std::uniform_int_distribution<int> ntok(1, 3);
  std::uniform_int_distribution<std::size_t> site(0, 2);
  std::uniform_int_distribution<int> arrival(1, 40);
  std::string spec;
  const int n = ntok(rng);
  for (int t = 0; t < n; ++t) {
    if (t > 0) spec += ',';
    spec += kSites[site(rng)];
    spec += '@';
    spec += std::to_string(arrival(rng));
    if ((rng() % 100) < 30) spec += '+';
  }
  return spec;
}

// Collects every certificate the faulted session emits so the round can
// pipe them through the standalone checker in-process.
struct CaptureSink : ProofSink {
  void on_unsat_certificate(const Certificate& cert) override {
    certs.push_back(cert);
  }
  std::vector<Certificate> certs;
};

TEST(FaultSoak, NeverAWrongVerdictAcrossRandomSchedules) {
  FaultGuard guard;
  const int schedules = soak_schedules();
  std::mt19937_64 master(20260808);
  int degraded = 0;
  int certified = 0;
  for (int round = 0; round < schedules; ++round) {
    const std::uint64_t seed = master();
    const std::string spec = random_schedule(master);
    // Alternate rounds carry a pigeonhole block: without it the random
    // formulas are decided in a handful of conflicts and most fault
    // arrivals are simply never reached.
    const bool with_php = (round % 2) == 0;

    // Reference: same script, faults off.
    ASSERT_TRUE(fault::configure(""));
    ExprFactory f_ref;
    auto ref_solver = make_solver(f_ref, Backend::Native);
    std::vector<SatResult> reference =
        FuzzScript(seed).run(f_ref, *ref_solver, with_php);

    // Faulted replay, with proof logging on: every Unsat the degraded
    // session still produces must come with a checkable certificate (or
    // one that is honest about being aborted by the fault).
    ASSERT_TRUE(fault::configure(spec.c_str())) << spec;
    ExprFactory f_flt;
    auto solver = make_solver(f_flt, Backend::Native);
    CaptureSink sink;
    solver->set_proof_sink(&sink);
    FuzzScript script(seed);
    std::vector<SatResult> faulted = script.run(f_flt, *solver, with_php);

    ASSERT_EQ(faulted.size(), reference.size()) << spec;
    for (std::size_t i = 0; i < faulted.size(); ++i) {
      if (faulted[i] == reference[i]) continue;
      // The only tolerated divergence: a degraded Unknown that says why.
      ASSERT_EQ(faulted[i], SatResult::Unknown)
          << "WRONG VERDICT under faults: spec=" << spec << " seed=" << seed
          << " check=" << i;
      ++degraded;
    }
    if (faulted.back() == SatResult::Unknown) {
      EXPECT_NE(solver->solve_stats().stop_reason, util::StopReason::kNone)
          << "silent Unknown: spec=" << spec << " seed=" << seed;
    }

    // Clearing the schedule re-arms the session: the final check must
    // now reproduce the reference verdict on the same live solver.
    ASSERT_TRUE(fault::configure(""));
    EXPECT_EQ(solver->check_assuming(script.scoped), reference.back())
        << "session not reusable after faults: spec=" << spec
        << " seed=" << seed;

    // Certification invariant under faults: one certificate per Unsat
    // check (the post-clear re-check included), each either accepted by
    // the standalone checker or honestly incomplete with a reason.
    std::size_t unsat_checks = reference.back() == SatResult::Unsat ? 1 : 0;
    for (const SatResult v : faulted) {
      if (v == SatResult::Unsat) ++unsat_checks;
    }
    EXPECT_EQ(sink.certs.size(), unsat_checks)
        << "certificates != Unsat checks: spec=" << spec << " seed=" << seed;
    testing::dump_certs(sink.certs, "soak_");
    for (std::size_t i = 0; i < sink.certs.size(); ++i) {
      const Certificate& cert = sink.certs[i];
      const proofcheck::CheckResult res =
          proofcheck::check_proof_text(cert.text);
      if (cert.complete) {
        EXPECT_TRUE(res.ok)
            << "cert " << i << " rejected (" << res.reason << ": "
            << res.detail << ") spec=" << spec << " seed=" << seed;
        EXPECT_EQ(res.mode, "native");
        ++certified;
      } else {
        EXPECT_FALSE(cert.reason.empty())
            << "incomplete certificate without a reason: spec=" << spec;
      }
    }
  }
  // The harness must actually bite: across hundreds of schedules at
  // least one fault has to land mid-search and degrade a verdict, and
  // the certification path must have validated real refutations.
  EXPECT_GT(degraded, 0) << "no schedule ever fired — soak is vacuous";
  EXPECT_GT(certified, 0) << "no Unsat was ever certified — soak is vacuous";
}

TEST(FaultSoak, SizingUnderFaultsIsSoundAndFaultIndependentWhenDefinite) {
  FaultGuard guard;
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  core::QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify.backend = Backend::Native;

  ASSERT_TRUE(fault::configure(""));
  const core::QueueSizingResult reference =
      core::find_minimal_queue_size(make, o);
  ASSERT_EQ(reference.minimal_capacity, 3u);  // the paper's 2x2 value
  ASSERT_EQ(reference.unknown_probes, 0u);
  EXPECT_EQ(reference.stop_reason, util::StopReason::kNone);

  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 6; ++round) {
    const std::string spec = random_schedule(rng);
    ASSERT_TRUE(fault::configure(spec.c_str())) << spec;
    const core::QueueSizingResult r = core::find_minimal_queue_size(make, o);
    if (r.unknown_probes == 0) {
      // Every probe definite → the sizing result is fault-independent.
      EXPECT_EQ(r.minimal_capacity, reference.minimal_capacity) << spec;
    } else {
      // Degraded probes may only ever oversize (or fail to find a
      // capacity), never undersize: acceptance needs a definite Unsat.
      EXPECT_NE(r.stop_reason, util::StopReason::kNone) << spec;
      if (r.minimal_capacity != 0) {
        EXPECT_GE(r.minimal_capacity, reference.minimal_capacity) << spec;
      }
    }
  }
}

TEST(FaultSoak, BudgetedVerifierReportsReasonNotSilence) {
  // Budgets and faults share the degradation path: a Verifier check that
  // exhausts an absurdly small conflict budget must say so.
  FaultGuard guard;
  ASSERT_TRUE(fault::configure(""));
  coh::MiAbstractConfig config;
  config.queue_capacity = 1;  // deadlocks (Sat) at capacity 1 when unbudgeted
  core::VerifyOptions vo;
  vo.backend = Backend::Native;
  vo.budget.max_conflicts = 1;
  const core::VerifyResult r =
      core::verify(coh::build_mi_abstract(config).net, vo);
  if (r.report.result == SatResult::Unknown) {
    EXPECT_NE(r.stop_reason, util::StopReason::kNone);
    EXPECT_EQ(r.solve_stats.stop_reason, r.stop_reason);
  } else {
    // The check fit inside one conflict; the verdict must then be the
    // unbudgeted one and carry no reason.
    EXPECT_EQ(r.stop_reason, util::StopReason::kNone);
  }
}

}  // namespace
}  // namespace advocat::smt
