// End-to-end verifier and minimal-queue-size search, on every available
// solver backend: native and Z3 must produce identical verdicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "advocat/verifier.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_abstract.hpp"
#include "helpers.hpp"
#include "util/stopwatch.hpp"

namespace advocat::core {
namespace {

class VerifierTest : public advocat::testing::BackendTest {
 protected:
  VerifyOptions options() const {
    VerifyOptions o;
    o.backend = GetParam();
    return o;
  }
};
ADVOCAT_INSTANTIATE_BACKENDS(VerifierTest);

class QueueSizing : public VerifierTest {};
ADVOCAT_INSTANTIATE_BACKENDS(QueueSizing);

TEST_P(VerifierTest, RejectsInvalidNetworks) {
  xmas::Network net;
  net.add_queue("dangling", 2);
  EXPECT_THROW(verify(net, options()), std::invalid_argument);
}

TEST_P(VerifierTest, ReportsStageTimings) {
  testing::RunningExample rx;
  const VerifyResult r = verify(rx.net, options());
  EXPECT_TRUE(r.deadlock_free());
  EXPECT_GT(r.num_invariants, 0u);
  EXPECT_GE(r.total_seconds, 0.0);
  EXPECT_FALSE(r.invariant_text.empty());
  EXPECT_NE(r.to_string().find("invariants:"), std::string::npos);
}

TEST_P(VerifierTest, InvariantsCanBeDisabled) {
  testing::RunningExample rx;
  VerifyOptions o = options();
  o.use_invariants = false;
  const VerifyResult r = verify(rx.net, o);
  EXPECT_EQ(r.num_invariants, 0u);
  EXPECT_FALSE(r.deadlock_free());  // candidates reappear
}

TEST_P(QueueSizing, FindsTheKnownBoundary) {
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify = options();
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  EXPECT_EQ(r.minimal_capacity, 3u);  // the paper's 2x2 value
  // Probes must include a failing and a succeeding capacity, and every
  // verdict must be definite on this small instance.
  bool saw_bad = false;
  bool saw_good = false;
  EXPECT_EQ(r.unknown_probes, 0u);
  for (const auto& [cap, verdict] : r.probes) {
    const bool free = verdict == smt::SatResult::Unsat;
    saw_bad |= !free;
    saw_good |= free;
    if (free) EXPECT_GE(cap, 3u);
    else EXPECT_LT(cap, 3u);
  }
  EXPECT_TRUE(saw_bad);
  EXPECT_TRUE(saw_good);
}

TEST_P(QueueSizing, ReportsFailureWhenNothingFits) {
  // A dead sink deadlocks at every capacity.
  auto make = [](std::size_t cap) {
    xmas::Network net;
    const xmas::ColorId d = net.colors().intern("d");
    const xmas::PrimId q = net.add_queue("q", cap);
    net.connect(net.add_source("src", {d}), 0, q, 0);
    net.connect(q, 0, net.add_sink("sink", /*fair=*/false), 0);
    return net;
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 8;
  o.verify = options();
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  EXPECT_EQ(r.minimal_capacity, 0u);
  EXPECT_FALSE(r.probes.empty());
}

TEST_P(VerifierTest, SessionChecksAreRepeatable) {
  testing::RunningExample rx;
  Verifier session(rx.net, options());
  const VerifyResult first = session.check();
  const VerifyResult second = session.check();
  EXPECT_TRUE(first.deadlock_free());
  EXPECT_TRUE(second.deadlock_free());
  EXPECT_EQ(first.num_invariants, second.num_invariants);
  // One pipeline, many checks.
  EXPECT_EQ(session.stats().validations, 1u);
  EXPECT_EQ(session.stats().invariant_generations, 1u);
  EXPECT_EQ(session.stats().encodes, 1u);
  EXPECT_EQ(session.stats().checks, 2u);
}

TEST_P(VerifierTest, ProbeCapacityMatchesOneShotVerify) {
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  VerifyOptions vo = options();
  vo.symbolic_capacities = true;
  Verifier session(make(1), vo);
  for (std::size_t cap = 1; cap <= 4; ++cap) {
    const bool incremental = session.probe_capacity(cap).deadlock_free();
    const bool one_shot = verify(make(cap), options()).deadlock_free();
    EXPECT_EQ(incremental, one_shot) << "capacity " << cap;
    EXPECT_EQ(incremental, cap >= 3u);  // the paper's 2x2 boundary
  }
  EXPECT_EQ(session.stats().validations, 1u);
  EXPECT_EQ(session.stats().checks, 4u);
}

TEST_P(VerifierTest, ThreadsAboveOneAreRejected) {
  // Every check is one sequential search: 0 and 1 both mean that search,
  // and any larger worker count is refused with a message naming the
  // field instead of being silently ignored.
  testing::RunningExample rx;
  for (const unsigned threads : {0u, 1u}) {
    VerifyOptions o = options();
    o.threads = threads;
    EXPECT_TRUE(Verifier(rx.net, o).check().deadlock_free()) << threads;
  }
  VerifyOptions o = options();
  o.threads = 2;
  try {
    Verifier session(rx.net, o);
    ADD_FAILURE() << "threads = 2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("VerifyOptions::threads"),
              std::string::npos)
        << e.what();
  }
}

TEST_P(VerifierTest, ProbeCapacityRequiresSymbolicSession) {
  testing::RunningExample rx;
  Verifier session(rx.net, options());
  EXPECT_THROW((void)session.probe_capacity(2), std::logic_error);
}

TEST_P(VerifierTest, TimeoutAndBudgetDeadlineComposeAsTheTighter) {
  // VerifyOptions::timeout_ms and budget.deadline_ms are folded into one
  // solver deadline, the tighter of the two. A 6x6 MI mesh at capacity 30
  // takes the native solver over a second to decide from cold, so a 50 ms
  // limit ends every check here Unknown, while a 60 s limit would let it
  // reach its verdict.
  coh::MiAbstractConfig config;
  config.width = 6;
  config.height = 6;
  config.queue_capacity = 30;
  const xmas::Network net = std::move(coh::build_mi_abstract(config).net);
  struct Case {
    unsigned timeout_ms;
    unsigned deadline_ms;
  };
  for (const Case c : {Case{50, 0}, Case{0, 50}, Case{50, 60'000},
                       Case{60'000, 50}}) {
    VerifyOptions vo = options();
    vo.timeout_ms = c.timeout_ms;
    vo.budget.deadline_ms = c.deadline_ms;
    Verifier session(net, vo);
    util::Stopwatch watch;
    const VerifyResult r = session.check();
    EXPECT_EQ(r.report.result, smt::SatResult::Unknown)
        << "timeout " << c.timeout_ms << ", deadline " << c.deadline_ms;
    EXPECT_EQ(r.stop_reason, util::StopReason::kDeadline);
    EXPECT_LT(watch.seconds(), 5.0) << "the looser limit won";
    if (c.timeout_ms == 50) {
      // Clearing the budget leaves timeout_ms in force. The re-check runs
      // on a fresh session: a warm one keeps its learned clauses and can
      // answer inside 50 ms, a cold one takes over a second.
      Verifier fresh(net, vo);
      fresh.set_budget({});
      const VerifyResult again = fresh.check();
      EXPECT_EQ(again.report.result, smt::SatResult::Unknown);
      EXPECT_EQ(again.stop_reason, util::StopReason::kDeadline);
    }
  }
}

TEST_P(QueueSizing, SizingRunsThePipelineExactlyOnce) {
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify = options();
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  EXPECT_EQ(r.minimal_capacity, 3u);
  // The tentpole contract: one validation + one invariant generation + one
  // encode for the whole sizing run; one solver check per probe.
  EXPECT_EQ(r.validations, 1u);
  EXPECT_EQ(r.invariant_generations, 1u);
  EXPECT_EQ(r.encodes, 1u);
  EXPECT_GE(r.probes.size(), 2u);
  EXPECT_EQ(r.solver_checks, r.probes.size());
}

TEST_P(QueueSizing, FactoryBuildsEachProbedNetworkOnce) {
  // The session is built from make_net(min_capacity), and the first probe
  // reuses it: one factory call per probe, none for the session itself.
  std::size_t calls = 0;
  auto make = [&calls](std::size_t cap) {
    ++calls;
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify = options();
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  EXPECT_EQ(r.minimal_capacity, 3u);
  EXPECT_GE(r.probes.size(), 2u);
  EXPECT_EQ(calls, r.probes.size());
}

TEST_P(QueueSizing, MinimalCapacityMatchesOneShotVerify) {
  // The one-shot verify() is the reference: the sized minimum must verify
  // deadlock-free on its own, and one below it must not.
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify = options();
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  ASSERT_GT(r.minimal_capacity, 1u);
  EXPECT_TRUE(verify(make(r.minimal_capacity), options()).deadlock_free());
  EXPECT_FALSE(verify(make(r.minimal_capacity - 1), options()).deadlock_free());
}

TEST_P(QueueSizing, ProbeThreadsAboveOneAreRejected) {
  // Capacities are probed one at a time on one session: 0 and 1 both mean
  // that search, and any larger width is refused with a message naming the
  // field instead of being silently ignored.
  std::size_t calls = 0;
  auto make = [&calls](std::size_t cap) {
    ++calls;
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify = options();
  for (const unsigned threads : {0u, 1u}) {
    o.probe_threads = threads;
    EXPECT_EQ(find_minimal_queue_size(make, o).minimal_capacity, 3u)
        << threads;
  }
  o.probe_threads = 2;
  calls = 0;
  try {
    (void)find_minimal_queue_size(make, o);
    ADD_FAILURE() << "probe_threads = 2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("QueueSizingOptions::probe_threads"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(calls, 0u);  // rejected before any network is built
}

TEST_P(QueueSizing, ShapeChangingFactoryIsRejected) {
  // make_net(cap) changes structure, not just capacities: the first probe
  // past the session's shape breaks the probe_compatible contract.
  auto make = [](std::size_t cap) {
    xmas::Network net;
    const xmas::ColorId d = net.colors().intern("d");
    xmas::PrimId prev = net.add_source("src", {d});
    int out = 0;
    // One pipeline stage per unit of capacity; every queue has capacity 1,
    // and the tail sink is dead below capacity 3, fair at and above it.
    for (std::size_t i = 0; i < cap; ++i) {
      const xmas::PrimId q =
          net.add_queue(std::string("q").append(std::to_string(i)), 1);
      net.connect(prev, out, q, 0);
      prev = q;
      out = 0;
    }
    net.connect(prev, out, net.add_sink("sink", /*fair=*/cap >= 3), 0);
    return net;
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 8;
  o.verify = options();
  EXPECT_THROW((void)find_minimal_queue_size(make, o), std::invalid_argument);
}

TEST_P(QueueSizing, OutOfRangeEmissionInACandidateIsRejected) {
  // src -> automaton -> queue -> dead sink deadlocks at every capacity, so
  // the ladder climbs past make_net(1), the checked session network. From
  // capacity 3 on the automaton emits on out-port 1,000,000 of one: the
  // candidate's derivation must skip that emission, not index the port.
  auto make = [](std::size_t cap) {
    xmas::Network net;
    const xmas::ColorId d = net.colors().intern("d");
    const int port = cap == 1 ? 0 : 1'000'000;
    xmas::Automaton a;
    a.name = "aut";
    a.states = {"s"};
    a.num_in = 1;
    a.num_out = 1;
    xmas::AutTransition t;
    t.guard = [](int, xmas::ColorId) { return true; };
    t.transform = [port](int, xmas::ColorId c) {
      return std::optional<xmas::Emission>({port, c});
    };
    t.label = "fwd";
    a.transitions.push_back(std::move(t));
    const xmas::PrimId aut = net.add_automaton(std::move(a));
    const xmas::PrimId q = net.add_queue("q", cap);
    net.connect(net.add_source("src", {d}), 0, aut, 0);
    net.connect(aut, 0, q, 0);
    net.connect(q, 0, net.add_sink("sink", /*fair=*/false), 0);
    return net;
  };
  QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 8;
  o.verify = options();
  try {
    (void)find_minimal_queue_size(make, o);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("make_net(3)"), std::string::npos)
        << e.what();
  }
}

TEST_P(QueueSizing, RejectsMinCapacityAboveMax) {
  std::size_t calls = 0;
  auto make = [&calls](std::size_t cap) {
    ++calls;
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = 9;
  o.max_capacity = 4;
  o.verify = options();
  EXPECT_THROW((void)find_minimal_queue_size(make, o), std::invalid_argument);
  // A zero minimum would make the ladder's step 0: capacity 0 forever.
  o.min_capacity = 0;
  o.max_capacity = 8;
  EXPECT_THROW((void)find_minimal_queue_size(make, o), std::invalid_argument);
  EXPECT_EQ(calls, 0u);  // rejected before any network is built
}

TEST_P(QueueSizing, RejectsCapacitiesAboveTheBound) {
  // source -> queue -> dead sink deadlocks at every capacity. Without the
  // bound the ladder climbs until a probed capacity wraps negative in the
  // int64 encoding, answers Unsat there, and a minimum of 2^63 comes back.
  auto make = [](std::size_t cap) {
    xmas::Network net;
    const xmas::ColorId d = net.colors().intern("d");
    const xmas::PrimId q = net.add_queue("q", cap);
    net.connect(net.add_source("src", {d}), 0, q, 0);
    net.connect(q, 0, net.add_sink("sink", /*fair=*/false), 0);
    return net;
  };
  QueueSizingOptions o;
  o.min_capacity = 3;
  o.max_capacity = std::numeric_limits<std::size_t>::max();
  o.verify = options();
  EXPECT_THROW((void)find_minimal_queue_size(make, o), std::invalid_argument);

  EXPECT_THROW((void)make(xmas::kMaxQueueCapacity + 1), std::invalid_argument);
  VerifyOptions vo = options();
  vo.symbolic_capacities = true;
  Verifier session(make(xmas::kMaxQueueCapacity), vo);
  EXPECT_FALSE(session.check().deadlock_free());
  EXPECT_THROW((void)session.probe_capacity(xmas::kMaxQueueCapacity + 1),
               std::invalid_argument);
}

TEST_P(QueueSizing, TrivialSystemNeedsMinCapacity) {
  // A fair pipeline is free at any capacity: the minimum is min_capacity.
  auto make = [](std::size_t cap) {
    xmas::Network net;
    const xmas::ColorId d = net.colors().intern("d");
    const xmas::PrimId q = net.add_queue("q", cap);
    net.connect(net.add_source("src", {d}), 0, q, 0);
    net.connect(q, 0, net.add_sink("sink"), 0);
    return net;
  };
  QueueSizingOptions o;
  o.min_capacity = 2;
  o.max_capacity = 8;
  o.verify = options();
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  EXPECT_EQ(r.minimal_capacity, 2u);
}

/// One pinned sizing run: the ladder's first capacity, k x k mesh and
/// directory position, then the expected probes ("<capacity><s|u>",
/// s = Sat, u = Unsat).
struct ProbePin {
  unsigned min_capacity;
  int mesh;
  int dir;
  const char* probes;
};

std::string probe_string(const QueueSizingResult& r) {
  std::string out;
  for (const auto& [cap, verdict] : r.probes) {
    if (!out.empty()) out += ' ';
    out += std::to_string(cap);
    out += verdict == smt::SatResult::Sat     ? 's'
           : verdict == smt::SatResult::Unsat ? 'u'
                                              : '?';
  }
  return out;
}

// The probe order (exponential ladder, then binary search) is
// deterministic, so the exact sequence is pinned on the native backend.
class QueueSizingProbes : public ::testing::TestWithParam<ProbePin> {};

TEST_P(QueueSizingProbes, SequenceIsPinned) {
  const ProbePin pin = GetParam();
  auto make = [&pin](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.width = pin.mesh;
    config.height = pin.mesh;
    config.directory_node = pin.dir;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.min_capacity = pin.min_capacity;
  o.verify.backend = smt::Backend::Native;
  const QueueSizingResult r = find_minimal_queue_size(make, o);
  EXPECT_EQ(probe_string(r), pin.probes);
  EXPECT_EQ(r.unknown_probes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Native, QueueSizingProbes,
    ::testing::Values(ProbePin{1, 2, 0, "1s 3u 2s"},
                      ProbePin{1, 3, 0, "1s 3s 7s 15u 11u 9s 10s"},
                      ProbePin{1, 3, 3, "1s 3s 7u 5u 4s"}),
    // The "w1_" prefix (one probe at a time) keeps the pins' test names.
    [](const ::testing::TestParamInfo<ProbePin>& info) {
      return "w1_" + std::to_string(info.param.mesh) + "x" +
             std::to_string(info.param.mesh) + "_dir" +
             std::to_string(info.param.dir);
    });

/// Native sizing of directory position `dir` of the k x k MI mesh.
QueueSizingResult size_mesh(int mesh, int dir,
                            const util::ResourceBudget& budget = {},
                            smt::ProofSink* sink = nullptr) {
  auto make = [mesh, dir](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.width = mesh;
    config.height = mesh;
    config.directory_node = dir;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  QueueSizingOptions o;
  o.verify.backend = smt::Backend::Native;
  o.verify.budget = budget;
  o.verify.proof_sink = sink;
  return find_minimal_queue_size(make, o);
}

// The solver counters show how the search closes a sizing run: with
// equalities as bound pairs no leaf is ever refuted, and interval conflicts
// are explained by the simplex's Farkas rows. Every conflict has one
// origin; every leaf that is not refuted is the model of a Sat probe.
TEST(SolverCounters, SizingRefutesNoLeafAndExplainsWithFarkasRows) {
  const QueueSizingResult r = size_mesh(3, 4);
  EXPECT_EQ(r.minimal_capacity, 5u);
  const smt::SolveStats& s = r.solve_stats;
  EXPECT_EQ(s.leaves_refuted, 0u);
  EXPECT_GT(s.conflicts_interval_farkas, 0u);
  std::uint64_t sat_probes = 0;
  for (const auto& [cap, verdict] : r.probes) {
    sat_probes += verdict == smt::SatResult::Sat ? 1 : 0;
  }
  EXPECT_EQ(s.leaves_reached, sat_probes);
  EXPECT_EQ(s.conflicts, s.conflicts_clause + s.conflicts_interval_farkas +
                             s.conflicts_interval_integer);
  EXPECT_GT(s.mean_conflict_lits, 0.0);
}

// Entailed-atom propagation is counted where it happens: 3x3 dir 0 pins the
// number of entailed atoms and of the explanations conflict analysis
// computed for them, and a proof sink (which logs each explanation
// analysis computes as a theory lemma) moves neither.
TEST(SolverCounters, EntailedPropagationsPinnedAndUnperturbedByLogging) {
  class DiscardSink : public smt::ProofSink {
   public:
    void on_unsat_certificate(const smt::Certificate& /*cert*/) override {
      ++certs;
    }
    int certs = 0;
  };
  DiscardSink sink;
  const QueueSizingResult logged = size_mesh(3, 0, {}, &sink);
  const QueueSizingResult plain = size_mesh(3, 0);
  EXPECT_GT(sink.certs, 0);
  ASSERT_EQ(plain.minimal_capacity, 11u);
  const smt::SolveStats& s = plain.solve_stats;
  EXPECT_EQ(s.entailed_propagations, 5'750u);
  EXPECT_EQ(s.entailed_explained, 204u);
  EXPECT_EQ(logged.solve_stats.entailed_propagations, s.entailed_propagations);
  EXPECT_EQ(logged.solve_stats.entailed_explained, s.entailed_explained);
  EXPECT_EQ(logged.solve_stats.conflicts, s.conflicts);
}

// Deterministic regression over the mesh's x/y reflection orbits: under a
// 5,000-conflict ceiling per check every cell answers, and the positions of
// one orbit share one minimal capacity.
TEST(QueueSizingOrbits, EveryCellAnswersAndOrbitsAgree) {
  struct Orbit {
    int mesh;
    std::vector<int> dirs;
    std::size_t minimal;
  };
  const std::vector<Orbit> orbits = {
      {4, {0, 3, 12, 15}, 23},  // 4x4 corners
      {3, {0, 2, 6, 8}, 11},    // 3x3 corners
      {3, {1, 7}, 11},          // 3x3 top/bottom edges
      {3, {3, 5}, 5},           // 3x3 side edges
      {3, {4}, 5},              // 3x3 centre
  };
  util::ResourceBudget budget;
  budget.max_conflicts = 5000;
  for (const Orbit& orbit : orbits) {
    for (const int dir : orbit.dirs) {
      const QueueSizingResult r = size_mesh(orbit.mesh, dir, budget);
      EXPECT_EQ(r.unknown_probes, 0u)
          << orbit.mesh << "x" << orbit.mesh << " dir " << dir;
      EXPECT_EQ(r.minimal_capacity, orbit.minimal)
          << orbit.mesh << "x" << orbit.mesh << " dir " << dir;
    }
  }
}

}  // namespace
}  // namespace advocat::core
