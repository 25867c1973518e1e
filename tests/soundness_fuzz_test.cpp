// Soundness fuzzing: on randomly generated small xMAS networks, a
// "deadlock-free" verdict from the SMT pipeline must never contradict
// exhaustive explicit-state exploration.
//
// This is the library's central meta-property (the paper: "a
// 'deadlock-free' result ensures a deadlock-free system"); false negatives
// (candidates on free systems) are allowed, missed deadlocks are not.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "advocat/verifier.hpp"
#include "analysis/analyzer.hpp"
#include "helpers.hpp"
#include "proof_check.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"
#include "xmas/network.hpp"

namespace advocat {
namespace {

// The fuzzer always runs with the solver invariant auditor on (unless the
// caller set ADVOCAT_AUDIT explicitly): a wrong verdict caught here is
// much easier to debug when the broken invariant aborts at its source.
const int kAuditOn = [] {
  ::setenv("ADVOCAT_AUDIT", "1", /*overwrite=*/0);
  return 0;
}();

using xmas::ColorId;
using xmas::Network;
using xmas::PrimId;

// Generates a random layered pipeline network: a source level, a shuffle of
// queues / functions / switches+merges / forks+joins, and a sink level with
// random fairness. Always structurally valid by construction.
Network random_network(std::mt19937_64& rng, bool* all_sources_fair) {
  Network net;
  auto& colors = net.colors();
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> pick(0, 4);
  std::uniform_int_distribution<int> qcap(1, 3);

  const ColorId a = colors.intern("a");
  const ColorId b = colors.intern("b");

  // Open producer ports to be terminated; start with 1-2 sources.
  std::vector<std::pair<PrimId, int>> open;
  const int num_sources = 1 + coin(rng);
  *all_sources_fair = true;
  for (int i = 0; i < num_sources; ++i) {
    xmas::ColorSet cs = coin(rng) ? xmas::ColorSet{a} : xmas::ColorSet{a, b};
    const bool fair = coin(rng) != 0;
    *all_sources_fair &= fair;
    open.emplace_back(net.add_source("src" + std::to_string(i), cs, fair), 0);
  }

  std::uniform_int_distribution<std::size_t> which(0, 100);
  int id = 0;
  const int layers = 2 + pick(rng);
  for (int layer = 0; layer < layers; ++layer) {
    const std::size_t at = which(rng) % open.size();
    auto [prim, port] = open[at];
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
    const std::string name = std::string("p").append(std::to_string(id++));
    switch (pick(rng)) {
      case 0: {
        const PrimId q = net.add_queue(name, static_cast<std::size_t>(qcap(rng)),
                                       coin(rng) != 0);
        net.connect(prim, port, q, 0);
        open.emplace_back(q, 0);
        break;
      }
      case 1: {
        const PrimId fn = net.add_function(
            name, [a, b, swap = coin(rng)](ColorId c) {
              return swap ? (c == a ? b : a) : c;
            });
        net.connect(prim, port, fn, 0);
        open.emplace_back(fn, 0);
        break;
      }
      case 2: {
        const PrimId sw = net.add_switch(
            name, 2, [a](ColorId c) { return c == a ? 0 : 1; });
        net.connect(prim, port, sw, 0);
        open.emplace_back(sw, 0);
        open.emplace_back(sw, 1);
        break;
      }
      case 3: {
        // Fork branches are always buffered: two fork outputs that
        // reconverge *combinationally* at one merge could never transfer
        // (the merge grants one input at a time while the fork needs both
        // accepted in the same cycle) — a structural pathology real
        // designs avoid and the block/idle equations do not model.
        const PrimId fork = net.add_fork(name);
        net.connect(prim, port, fork, 0);
        for (int branch = 0; branch < 2; ++branch) {
          const PrimId q = net.add_queue(
              name + "_q" + std::to_string(branch),
              static_cast<std::size_t>(qcap(rng)));
          net.connect(fork, branch, q, 0);
          open.emplace_back(q, 0);
        }
        break;
      }
      case 4: {
        // Merge two open producers when possible.
        if (open.empty()) {
          const PrimId q = net.add_queue(name, 1, true);
          net.connect(prim, port, q, 0);
          open.emplace_back(q, 0);
          break;
        }
        const std::size_t other = which(rng) % open.size();
        auto [prim2, port2] = open[other];
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(other));
        const PrimId mg = net.add_merge(name, 2);
        net.connect(prim, port, mg, 0);
        net.connect(prim2, port2, mg, 1);
        open.emplace_back(mg, 0);
        break;
      }
    }
  }
  // Terminate every open producer with a queue+sink (mostly fair).
  int k = 0;
  for (auto [prim, port] : open) {
    const PrimId q =
        net.add_queue("tq" + std::to_string(k), static_cast<std::size_t>(qcap(rng)));
    net.connect(prim, port, q, 0);
    const bool fair = which(rng) < 85;  // some dead sinks => some deadlocks
    net.connect(
        q, 0, net.add_sink(std::string("t").append(std::to_string(k)), fair),
        0);
    ++k;
  }
  return net;
}

// Rounds per seed. The default keeps one seed's runtime in CI to a few
// hundred milliseconds; ADVOCAT_FUZZ_ROUNDS overrides for longer local
// soaks. The rng is seeded from the test parameter only, so every run
// (including --gtest_repeat) explores the identical network sequence.
int fuzz_rounds() {
  if (const char* env = std::getenv("ADVOCAT_FUZZ_ROUNDS")) {
    const int rounds = std::atoi(env);
    if (rounds > 0) return rounds;
  }
  return 12;
}

class SoundnessFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SoundnessFuzz, NoMissedDeadlocks) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  int free_verdicts = 0;
  int deadlock_verdicts = 0;
  const int rounds = fuzz_rounds();
  for (int round = 0; round < rounds; ++round) {
    bool all_sources_fair = false;
    const Network net = random_network(rng, &all_sources_fair);
    ASSERT_FALSE(analysis::analyze(net).has_errors());

    const core::VerifyResult verdict = core::verify(net);

    sim::Simulator simulator(net);
    sim::ExploreOptions options;
    options.max_states = 60'000;
    const sim::ExploreResult ground = sim::explore(simulator, options);

    if (verdict.deadlock_free()) {
      ++free_verdicts;
      EXPECT_FALSE(ground.deadlock.has_value())
          << "UNSOUND: SMT said free, explorer found a reachable deadlock "
          << "(seed " << GetParam() << " round " << round << ")";
    } else {
      ++deadlock_verdicts;
    }
    // The reverse direction is deliberately NOT asserted: candidates on
    // deadlock-free systems are the method's documented false negatives
    // (Section 1 of the paper), e.g. bag-queue occupancy patterns the
    // counts abstraction cannot refute.
    (void)all_sources_fair;
  }
  // The generator must exercise both verdicts across rounds.
  EXPECT_GT(free_verdicts + deadlock_verdicts, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ------------------------------------------------------------ certification
// Every Unsat ("deadlock-free") verdict the fuzzer produces must come with
// a certificate that the standalone checker accepts — across sequential,
// parallel (clause exchange on), and budget-degraded configurations.

struct CaptureSink : smt::ProofSink {
  void on_unsat_certificate(const smt::Certificate& cert) override {
    certs.push_back(cert);
  }
  std::vector<smt::Certificate> certs;
};

// Runs the checker over every captured certificate. Complete certificates
// must validate as replayable native proofs; incomplete ones must say why
// and still parse as (attested) certificates.
void expect_all_certified(const CaptureSink& sink, const std::string& where) {
  testing::dump_certs(sink.certs, "fuzz_");
  for (std::size_t i = 0; i < sink.certs.size(); ++i) {
    const smt::Certificate& cert = sink.certs[i];
    const proofcheck::CheckResult res = proofcheck::check_proof_text(cert.text);
    if (cert.complete) {
      EXPECT_TRUE(res.ok) << where << " cert " << i << " rejected: "
                          << res.reason << " (" << res.detail << ")";
      EXPECT_EQ(res.mode, "native") << where << " cert " << i;
    } else {
      EXPECT_FALSE(cert.reason.empty())
          << where << " cert " << i << " incomplete without a reason";
    }
    EXPECT_GT(cert.proof_bytes, 0u) << where << " cert " << i;
  }
}

TEST_P(SoundnessFuzz, EveryUnsatVerdictCertified) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) ^ 0x9e3779b9u);
  int certified = 0;
  const int rounds = fuzz_rounds();
  for (int round = 0; round < rounds; ++round) {
    bool all_sources_fair = false;
    const Network net = random_network(rng, &all_sources_fair);
    ASSERT_FALSE(analysis::analyze(net).has_errors());
    (void)all_sources_fair;

    {
      CaptureSink sink;
      core::VerifyOptions vo;
      vo.backend = smt::Backend::Native;  // Z3 certificates are attested-only
      vo.proof_sink = &sink;
      const core::VerifyResult verdict = core::verify(net, vo);
      if (verdict.deadlock_free()) {
        EXPECT_FALSE(sink.certs.empty())
            << "Unsat verdict without a certificate (seed " << GetParam()
            << " round " << round << ")";
        certified += static_cast<int>(sink.certs.size());
      } else {
        EXPECT_TRUE(sink.certs.empty())
            << "certificate emitted on a non-Unsat verdict (seed "
            << GetParam() << " round " << round << ")";
      }
      expect_all_certified(sink, "unbudgeted");
    }

    // Budget-degraded pass: a tight conflict ceiling may degrade the
    // verdict to Unknown (then no certificate is owed), but an Unsat that
    // still completes under the ceiling must certify like any other.
    {
      CaptureSink sink;
      core::VerifyOptions vo;
      vo.backend = smt::Backend::Native;
      vo.proof_sink = &sink;
      vo.budget.max_conflicts = 15;
      const core::VerifyResult verdict = core::verify(net, vo);
      if (verdict.deadlock_free()) {
        EXPECT_FALSE(sink.certs.empty())
            << "budget-degraded Unsat without a certificate (seed "
            << GetParam() << " round " << round << ")";
      }
      expect_all_certified(sink, "budgeted");
    }
  }
  // The generator must have produced at least one certified refutation;
  // otherwise this test silently checked nothing.
  EXPECT_GT(certified, 0) << "seed " << GetParam()
                          << " never produced an Unsat verdict";
}

// Installing a proof sink must not perturb the verdict or the solver
// statistics, which are deterministic for the sequential search: logging
// reads the search, it never steers it.
TEST(ProofLogging, DoesNotPerturbVerdictsOrDeterministicStats) {
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 4; ++round) {
    bool all_sources_fair = false;
    const Network net = random_network(rng, &all_sources_fair);
    ASSERT_FALSE(analysis::analyze(net).has_errors());
    (void)all_sources_fair;

    core::VerifyOptions base;
    base.backend = smt::Backend::Native;

    const core::VerifyResult plain = core::verify(net, base);

    CaptureSink sink;
    core::VerifyOptions logged = base;
    logged.proof_sink = &sink;
    const core::VerifyResult with_log = core::verify(net, logged);

    EXPECT_EQ(plain.report.result, with_log.report.result)
        << "round " << round;
    EXPECT_EQ(plain.solve_stats.decisions, with_log.solve_stats.decisions)
        << "round " << round;
    EXPECT_EQ(plain.solve_stats.conflicts, with_log.solve_stats.conflicts)
        << "round " << round;
    EXPECT_EQ(plain.solve_stats.propagations,
              with_log.solve_stats.propagations)
        << "round " << round;
    EXPECT_EQ(plain.solve_stats.restarts, with_log.solve_stats.restarts)
        << "round " << round;
    EXPECT_EQ(plain.solve_stats.learned_clauses,
              with_log.solve_stats.learned_clauses)
        << "round " << round;
    expect_all_certified(sink, "determinism round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace advocat
