// Static-analysis layer: one minimal ill-formed network per analyzer
// rule, the warning rules on well-formed nets, and the verifier
// integration — a net with an idle component keeps its verdict and
// minimal capacity on every backend, with the warnings on the result.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "advocat/verifier.hpp"
#include "analysis/analyzer.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_abstract.hpp"
#include "helpers.hpp"
#include "xmas/network.hpp"

namespace advocat::analysis {
namespace {

bool has_rule(const AnalysisResult& r, const std::string& rule,
              Severity severity) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule == rule && d.severity == severity) return true;
  }
  return false;
}

/// A closed two-queue ring: structurally valid, but no packet can ever
/// enter it — every channel is dead and the component holds neither a
/// source nor an automaton, so it is provably idle.
void add_idle_ring(xmas::Network& net) {
  const xmas::PrimId r1 = net.add_queue("idle_r1", 2);
  const xmas::PrimId r2 = net.add_queue("idle_r2", 2);
  net.connect(r1, 0, r2, 0, "idle_a");
  net.connect(r2, 0, r1, 0, "idle_b");
}

TEST(AnalyzerTest, DanglingPortIsAnError) {
  xmas::Network net;
  net.add_queue("lonely", 2);  // both ports unwired
  const AnalysisResult r = analyze(net);
  EXPECT_TRUE(r.has_errors());
  EXPECT_EQ(r.num_errors(), 2u);  // in-port and out-port
  EXPECT_TRUE(has_rule(r, "port-connectivity", Severity::Error));
  EXPECT_EQ(r.diagnostics.front().component, "lonely");
  EXPECT_NE(r.diagnostics.front().to_string().find("port-connectivity"),
            std::string::npos);
}

TEST(AnalyzerTest, DuplicateNameIsAnError) {
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId q1 = net.add_queue("q", 2);
  const xmas::PrimId q2 = net.add_queue("q", 2);
  net.connect(net.add_source("s1", {d}), 0, q1, 0);
  net.connect(net.add_source("s2", {d}), 0, q2, 0);
  net.connect(q1, 0, net.add_sink("k1"), 0);
  net.connect(q2, 0, net.add_sink("k2"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_TRUE(has_rule(r, "duplicate-name", Severity::Error));
}

TEST(AnalyzerTest, ColorlessSourceIsAParameterError) {
  // The builder guards queue capacity and switch/merge arity itself; an
  // empty source color set is the parameter error it lets through.
  xmas::Network net;
  const xmas::PrimId q = net.add_queue("q", 2);
  net.connect(net.add_source("src", {}), 0, q, 0);
  net.connect(q, 0, net.add_sink("sink"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(has_rule(r, "parameters", Severity::Error));
}

TEST(AnalyzerTest, CombinationalCycleIsAnError) {
  // src -> merge -> fork -> {merge (back edge), sink}: the merge/fork
  // loop contains no queue, so the synchronous transfer relation has no
  // least fixed point.
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId m = net.add_merge("m", 2);
  const xmas::PrimId f = net.add_fork("f");
  net.connect(net.add_source("src", {d}), 0, m, 0);
  net.connect(m, 0, f, 0, "loop_in");
  net.connect(f, 0, m, 1, "loop_back");
  net.connect(f, 1, net.add_sink("sink"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(has_rule(r, "combinational-cycle", Severity::Error));
}

TEST(AnalyzerTest, QueueBreaksCombinationalCycle) {
  // The same loop with a queue inside is a perfectly fine net.
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId m = net.add_merge("m", 2);
  const xmas::PrimId f = net.add_fork("f");
  const xmas::PrimId q = net.add_queue("q", 2);
  net.connect(net.add_source("src", {d}), 0, m, 0);
  net.connect(m, 0, f, 0);
  net.connect(f, 0, q, 0);
  net.connect(q, 0, m, 1);
  net.connect(f, 1, net.add_sink("sink"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_FALSE(has_rule(r, "combinational-cycle", Severity::Error));
}

TEST(AnalyzerTest, OutOfRangeRouteIsATypeError) {
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId sw =
      net.add_switch("sw", 2, [](xmas::ColorId) { return 7; });
  net.connect(net.add_source("src", {d}), 0, sw, 0);
  net.connect(sw, 0, net.add_sink("k0"), 0);
  net.connect(sw, 1, net.add_sink("k1"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(has_rule(r, "type-consistency", Severity::Error));
}

TEST(AnalyzerTest, OutOfRangeFunctionImageIsATypeError) {
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId fn =
      net.add_function("fn", [](xmas::ColorId) { return xmas::ColorId{99}; });
  net.connect(net.add_source("src", {d}), 0, fn, 0);
  net.connect(fn, 0, net.add_sink("sink"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(has_rule(r, "type-consistency", Severity::Error));
}

/// src -> automaton "aut" -> sink, one transition that emits `emission`
/// for every packet it consumes.
xmas::Network emitter_net(xmas::Emission emission) {
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  xmas::Automaton a;
  a.name = "aut";
  a.states = {"s"};
  a.num_in = 1;
  a.num_out = 1;
  xmas::AutTransition t;
  t.guard = [](int, xmas::ColorId) { return true; };
  t.transform = [emission](int, xmas::ColorId) {
    return std::optional<xmas::Emission>(emission);
  };
  t.label = "fwd";
  a.transitions.push_back(std::move(t));
  const xmas::PrimId aut = net.add_automaton(std::move(a));
  net.connect(net.add_source("src", {d}), 0, aut, 0);
  net.connect(aut, 0, net.add_sink("sink"), 0);
  return net;
}

TEST(AnalyzerTest, OutOfRangeEmissionIsATypeError) {
  // Port 1,000,000 of a one-port automaton, then color 99 of a one-color
  // table: each is one type-consistency error on "aut".
  for (const xmas::Emission& emission :
       {xmas::Emission{1'000'000, 0}, xmas::Emission{0, 99}}) {
    const AnalysisResult r = analyze(emitter_net(emission));
    ASSERT_EQ(r.num_errors(), 1u) << r.to_string();
    const Diagnostic& d = r.diagnostics.front();
    EXPECT_EQ(d.rule, "type-consistency");
    EXPECT_EQ(d.component, "aut");
    EXPECT_NE(d.message.find(emission.first == 0 ? "color 99" : "out-port 1000000"),
              std::string::npos)
        << d.message;
  }
  EXPECT_FALSE(analyze(emitter_net({0, 0})).has_errors());
}

TEST(AnalyzerTest, DeadChannelIsAWarning) {
  // The switch routes every color to port 0, so the port-1 channel can
  // never see a packet: a warning, not an error.
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId sw =
      net.add_switch("sw", 2, [](xmas::ColorId) { return 0; });
  net.connect(net.add_source("src", {d}), 0, sw, 0);
  net.connect(sw, 0, net.add_sink("k0"), 0);
  net.connect(sw, 1, net.add_sink("k1"), 0, "never");
  const AnalysisResult r = analyze(net);
  EXPECT_FALSE(r.has_errors());
  EXPECT_TRUE(has_rule(r, "dead-channel", Severity::Warning));
  ASSERT_EQ(r.dead_channels.size(), 1u);
  EXPECT_EQ(net.channel_name(r.dead_channels.front()), "never");
}

TEST(AnalyzerTest, UnreachableSinkIsAWarning) {
  // src -> merge -> q -> merge: packets circulate forever with no sink,
  // join token port, or automaton anywhere downstream.
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId m = net.add_merge("m", 2);
  const xmas::PrimId q = net.add_queue("q", 2);
  net.connect(net.add_source("src", {d}), 0, m, 0);
  net.connect(m, 0, q, 0);
  net.connect(q, 0, m, 1);
  const AnalysisResult r = analyze(net);
  EXPECT_FALSE(r.has_errors());
  EXPECT_TRUE(has_rule(r, "unreachable-sink", Severity::Warning));
}

TEST(AnalyzerTest, CleanNetworkHasNoDiagnostics) {
  testing::RunningExample rx;
  const AnalysisResult r = analyze(rx.net);
  EXPECT_TRUE(r.diagnostics.empty()) << r.to_string();
  EXPECT_TRUE(r.dead_channels.empty());
}

TEST(AnalyzerTest, IdleComponentChannelsAreDead) {
  testing::RunningExample rx;
  add_idle_ring(rx.net);
  const AnalysisResult r = analyze(rx.net);
  EXPECT_FALSE(r.has_errors());
  EXPECT_EQ(r.dead_channels.size(), 2u);
}

TEST(AnalyzerTest, LiveComponentReportsOnlyItsDeadChannel) {
  // A dead channel inside a component that also carries live traffic is
  // reported on its own; the live channels are not.
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId sw =
      net.add_switch("sw", 2, [](xmas::ColorId) { return 0; });
  net.connect(net.add_source("src", {d}), 0, sw, 0);
  net.connect(sw, 0, net.add_sink("k0"), 0);
  net.connect(sw, 1, net.add_sink("k1"), 0);
  const AnalysisResult r = analyze(net);
  EXPECT_EQ(r.dead_channels.size(), 1u);
}

// ------------------------------------------------ verifier integration

class AnalysisBackend : public advocat::testing::BackendTest {
 protected:
  core::VerifyOptions options() const {
    core::VerifyOptions o;
    o.backend = GetParam();
    return o;
  }
};
ADVOCAT_INSTANTIATE_BACKENDS(AnalysisBackend);

TEST_P(AnalysisBackend, ErrorsRejectBeforeAnySolverWork) {
  xmas::Network net;
  const xmas::ColorId d = net.colors().intern("d");
  const xmas::PrimId sw =
      net.add_switch("sw", 2, [](xmas::ColorId) { return 7; });
  net.connect(net.add_source("src", {d}), 0, sw, 0);
  net.connect(sw, 0, net.add_sink("k0"), 0);
  net.connect(sw, 1, net.add_sink("k1"), 0);
  try {
    core::verify(net, options());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The structured diagnostic rides on the exception, rule id included.
    EXPECT_NE(std::string(e.what()).find("type-consistency"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("sw"), std::string::npos);
  }
}

TEST_P(AnalysisBackend, WarningsSurfaceInTheResult) {
  testing::RunningExample rx;
  add_idle_ring(rx.net);
  const core::VerifyResult r = core::verify(rx.net, options());
  EXPECT_TRUE(r.deadlock_free());
  EXPECT_EQ(r.diagnostics.size(), 2u);  // the two dead ring channels
  for (const analysis::Diagnostic& diag : r.diagnostics) {
    EXPECT_EQ(diag.severity, analysis::Severity::Warning);
    EXPECT_EQ(diag.rule, "dead-channel");
  }
  EXPECT_GE(r.analysis_ms, 0.0);
  EXPECT_NE(r.to_string().find("dead-channel"), std::string::npos);
}

TEST_P(AnalysisBackend, PruningPreservesMinimalCapacity) {
  // An idle component leaves the minimal capacity of the abstract MI net
  // at 3, and its warnings reach the sizing result.
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    xmas::Network net = std::move(coh::build_mi_abstract(config).net);
    add_idle_ring(net);
    return net;
  };
  core::QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify = options();
  const core::QueueSizingResult r = core::find_minimal_queue_size(make, o);
  EXPECT_EQ(r.minimal_capacity, 3u);
  EXPECT_EQ(r.validations, 1u);  // one session
  EXPECT_EQ(r.unknown_probes, 0u);
  EXPECT_GE(r.diagnostics, 2u);  // the ring warnings ride along
  EXPECT_GE(r.analysis_ms, 0.0);
}

}  // namespace
}  // namespace advocat::analysis
