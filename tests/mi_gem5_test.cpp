// GEM5-inspired MI protocol: structure, protocol-level freedom, cross-layer
// sizing boundary, and agreement between the SMT pipeline and the
// explicit-state ground truth.
#include <gtest/gtest.h>

#include "advocat/verifier.hpp"
#include "analysis/analyzer.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_gem5.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"
#include "xmas/typing.hpp"

namespace advocat {
namespace {

TEST(MiGem5, NetworkValidates) {
  coh::MiGem5System sys = coh::build_mi_gem5({});
  const analysis::AnalysisResult r = analysis::analyze(sys.net);
  EXPECT_FALSE(r.has_errors()) << r.to_string();
  // 2x2 with one directory and one DMA node leaves two caches.
  EXPECT_EQ(sys.cache_nodes.size(), 2u);
}

TEST(MiGem5, EightMessageTypesOnTheWire) {
  coh::MiGem5System sys = coh::build_mi_gem5({});
  const xmas::Typing typing = xmas::Typing::derive(sys.net);
  std::vector<std::string> types;
  for (xmas::PrimId q : sys.net.prims_of_kind(xmas::PrimKind::Queue)) {
    for (xmas::ColorId d : typing.of(sys.net.prim(q).in[0])) {
      const std::string& t = sys.net.colors().get(d).type;
      if (std::find(types.begin(), types.end(), t) == types.end()) {
        types.push_back(t);
      }
    }
  }
  EXPECT_EQ(types.size(), 8u);  // the paper's 8 message types
}

TEST(MiGem5, RejectsBadNodeAssignments) {
  coh::MiGem5Config config;
  config.directory_node = 99;
  EXPECT_THROW(coh::build_mi_gem5(config), std::invalid_argument);
  config.directory_node = 3;
  config.dma_node = 3;  // same as directory
  EXPECT_THROW(coh::build_mi_gem5(config), std::invalid_argument);
}

TEST(MiGem5, DeadlockFreeAtCapacity2Proven) {
  coh::MiGem5Config config;
  config.queue_capacity = 2;
  coh::MiGem5System sys = coh::build_mi_gem5(config);
  const core::VerifyResult result = core::verify(sys.net);
  EXPECT_TRUE(result.deadlock_free()) << result.report.to_string();
}

TEST(MiGem5, ExplorerAgreesAtCapacity2) {
  coh::MiGem5Config config;
  config.queue_capacity = 2;
  coh::MiGem5System sys = coh::build_mi_gem5(config);
  sim::Simulator simulator(sys.net);
  const sim::ExploreResult result = sim::explore(simulator);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.deadlock.has_value());
}

TEST(MiGem5, DeadlocksAtCapacity1) {
  coh::MiGem5Config config;
  config.queue_capacity = 1;
  coh::MiGem5System sys = coh::build_mi_gem5(config);
  const core::VerifyResult result = core::verify(sys.net);
  EXPECT_FALSE(result.deadlock_free());
  // And the candidate is real: exhaustive exploration finds it.
  sim::Simulator simulator(sys.net);
  const sim::ExploreResult ground = sim::explore(simulator);
  EXPECT_TRUE(ground.deadlock.has_value());
}

// Backend-parameterized since PR 4: the native solver's CDCL core keeps
// learned clauses across the sizing probes, so the 3x3 boundary is found
// in seconds on every backend (it used to be Z3-only).
class MiGem5Backend : public advocat::testing::BackendTest {};
ADVOCAT_INSTANTIATE_BACKENDS(MiGem5Backend);

TEST_P(MiGem5Backend, LargerMeshNeedsLargerQueues) {
  auto make = [](std::size_t cap) {
    coh::MiGem5Config config;
    config.width = 3;
    config.height = 3;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_gem5(config).net);
  };
  core::QueueSizingOptions options;
  options.min_capacity = 1;
  options.max_capacity = 64;
  options.verify.backend = GetParam();
  // Hang guard per probe (seconds of actual work on either backend);
  // ADVOCAT_TEST_TIMEOUT_MS overrides it centrally.
  options.verify.timeout_ms = advocat::testing::test_timeout_ms(60'000);
  const auto sizing = core::find_minimal_queue_size(make, options);
  EXPECT_EQ(sizing.unknown_probes, 0u);  // every probe must be definite
  EXPECT_GT(sizing.minimal_capacity, 2u);  // 2x2 needs 2; 3x3 needs more
  EXPECT_LE(sizing.minimal_capacity, 16u);
  // The native path must actually be learning, not brute-forcing.
  if (GetParam() == smt::Backend::Native) {
    EXPECT_GT(sizing.solve_stats.learned_clauses, 0u);
  }
}

TEST(MiGem5, VcClassesAreConsistent) {
  // The 3-class map must put every message in [0, 3).
  for (const char* type :
       {coh::kGetX, coh::kData, coh::kDataAck, coh::kFwdGetX, coh::kPutX,
        coh::kWbAck, coh::kWbNack, coh::kDmaReq}) {
    xmas::ColorData c;
    c.type = type;
    const int vc = coh::mi_gem5_vc_class(c);
    EXPECT_GE(vc, 0);
    EXPECT_LT(vc, 3);
  }
  // With VCs the network still validates and verifies.
  coh::MiGem5Config config;
  config.queue_capacity = 3;
  config.num_vcs = 3;
  coh::MiGem5System sys = coh::build_mi_gem5(config);
  EXPECT_FALSE(analysis::analyze(sys.net).has_errors());
  const core::VerifyResult result = core::verify(sys.net);
  EXPECT_TRUE(result.deadlock_free()) << result.report.to_string();
}

TEST_P(MiGem5Backend, FlowCompletionAgreesWithEqualities) {
  for (std::size_t cap : {1u, 2u, 3u}) {
    coh::MiGem5Config config;
    config.queue_capacity = cap;
    coh::MiGem5System sys = coh::build_mi_gem5(config);
    core::VerifyOptions eq;
    core::VerifyOptions fc;
    eq.backend = GetParam();
    fc.backend = GetParam();
    fc.use_flow_completion = true;
    // Since the CDCL core landed the native backend finishes every one of
    // these (the cap-1 flow-completion Sat instance used to be
    // timeout-bounded); both verdicts must now be definite on every
    // backend. The timeout is a hang guard, not a tuning knob — override
    // with ADVOCAT_TEST_TIMEOUT_MS to tighten it in CI smoke mode.
    eq.timeout_ms = advocat::testing::test_timeout_ms(60'000);
    fc.timeout_ms = advocat::testing::test_timeout_ms(60'000);
    const smt::SatResult r_eq = core::verify(sys.net, eq).report.result;
    const smt::SatResult r_fc = core::verify(sys.net, fc).report.result;
    ASSERT_NE(r_eq, smt::SatResult::Unknown) << "capacity " << cap;
    ASSERT_NE(r_fc, smt::SatResult::Unknown) << "capacity " << cap;
    // Flow completion subsumes the equalities: it can only prune more.
    EXPECT_LE(r_eq == smt::SatResult::Unsat, r_fc == smt::SatResult::Unsat)
        << "capacity " << cap;
  }
}

}  // namespace
}  // namespace advocat
