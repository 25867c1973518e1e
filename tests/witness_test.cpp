// Certified Sat verdicts: every deadlock candidate is decoded into a
// concrete simulator state and replayed (bounded exhaustive BFS) to
// confirm the claimed blockage is genuine, then minimized to an
// inclusion-minimal blocking queue set — no proper subset may still
// block. Runs across solver backends: the witness pipeline only consumes
// the model, so the verdict structure must be backend-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "advocat/verifier.hpp"
#include "automata/builder.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_abstract.hpp"
#include "deadlock/varnames.hpp"
#include "deadlock/witness.hpp"
#include "helpers.hpp"
#include "noc/mesh.hpp"
#include "sim/simulator.hpp"
#include "xmas/typing.hpp"

namespace advocat {
namespace {

using deadlock::ClaimStatus;
using deadlock::Witness;
using xmas::ColorId;
using xmas::Network;
using xmas::PrimId;

/// A deterministic genuine deadlock: a fair source feeds a 1-slot queue
/// whose only consumer is a join waiting for a token that never arrives
/// (the token source is unfair, so it may stall forever).
struct JoinStarvation {
  Network net;
  PrimId src = -1, q = -1;
  JoinStarvation() {
    const ColorId pkt = net.colors().intern("pkt");
    const ColorId tok = net.colors().intern("tok");
    src = net.add_source("src", {pkt});
    q = net.add_queue("q", 1);
    const PrimId join = net.add_join("join");
    const PrimId tok_src = net.add_source("tokSrc", {tok}, /*fair=*/false);
    const PrimId sink = net.add_sink("sink");
    net.connect(src, 0, q, 0);
    net.connect(q, 0, join, 0);
    net.connect(tok_src, 0, join, 1);
    net.connect(join, 0, sink, 0);
  }
};

/// Checks inclusion-minimality directly: emptying any single blocking
/// queue and re-replaying must break a claim (or leave nothing to claim).
void expect_no_proper_subset_blocked(const Network& net, const Witness& w) {
  const sim::Simulator sim(net);
  std::vector<std::string> tags;
  for (const auto& c : w.claims) tags.push_back(c.tag);
  for (const std::string& qname : w.blocking_queues) {
    sim::State probe = w.state;
    int ordinal = -1;
    for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
      if (net.prim(sim.queue_prim(static_cast<int>(qi))).name == qname) {
        ordinal = static_cast<int>(qi);
      }
    }
    ASSERT_GE(ordinal, 0) << qname;
    probe.queues[static_cast<std::size_t>(ordinal)].clear();
    // Claims about the emptied queue's contents no longer apply.
    std::vector<std::string> probe_tags;
    for (const std::string& t : tags) {
      if (t == "packet_stuck:" + qname) continue;
      probe_tags.push_back(t);
    }
    const std::vector<deadlock::WitnessClaim> verdicts =
        deadlock::replay_claims(net, probe, probe_tags, 50'000);
    const bool still_blocked =
        !verdicts.empty() &&
        std::all_of(verdicts.begin(), verdicts.end(), [](const auto& c) {
          return c.status == ClaimStatus::Confirmed;
        });
    EXPECT_FALSE(still_blocked)
        << "emptying " << qname << " leaves the witness blocked: not minimal";
  }
}

class WitnessBackend : public testing::BackendTest {};
ADVOCAT_INSTANTIATE_BACKENDS(WitnessBackend);

TEST_P(WitnessBackend, JoinStarvationConfirmedAndMinimal) {
  JoinStarvation n;
  core::VerifyOptions vo;
  vo.backend = GetParam();
  vo.witness_replay = true;
  vo.timeout_ms = testing::test_timeout_ms(60'000);
  const core::VerifyResult r = core::verify(n.net, vo);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value());
  const Witness& w = *r.witness;
  EXPECT_TRUE(w.consistent) << w.to_string();
  ASSERT_TRUE(w.replayed);
  EXPECT_TRUE(w.exhaustive);
  EXPECT_TRUE(w.blocked) << w.to_string();
  EXPECT_TRUE(w.minimal);
  // The packet wedged in q is the whole deadlock.
  ASSERT_EQ(w.blocking_queues, std::vector<std::string>{"q"});
  expect_no_proper_subset_blocked(n.net, w);
  // JSON carries the machine-readable verdict (schema: docs/PROOFS.md).
  const std::string json = w.to_json();
  EXPECT_NE(json.find("\"blocked\":true"), std::string::npos);
  EXPECT_NE(json.find("\"minimal\":true"), std::string::npos);
}

TEST_P(WitnessBackend, MinimizedWitnessStillBlocked) {
  JoinStarvation n;
  core::VerifyOptions vo;
  vo.backend = GetParam();
  vo.witness_replay = true;
  vo.timeout_ms = testing::test_timeout_ms(60'000);
  const core::VerifyResult r = core::verify(n.net, vo);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value() && r.witness->blocked);
  // Re-replaying the *minimized* state confirms it is still blocked.
  std::vector<std::string> tags;
  for (const auto& c : r.witness->claims) tags.push_back(c.tag);
  bool exhaustive = false;
  const auto verdicts = deadlock::replay_claims(n.net, r.witness->state, tags,
                                                50'000, nullptr, &exhaustive);
  EXPECT_TRUE(exhaustive);
  ASSERT_FALSE(verdicts.empty());
  for (const auto& c : verdicts) {
    EXPECT_EQ(c.status, ClaimStatus::Confirmed) << c.tag << ": " << c.note;
  }
}

TEST_P(WitnessBackend, Fig1CandidateWithoutInvariantsIsReplayed) {
  // Without invariants the fig. 1 running example yields a spurious
  // candidate (the net is deadlock-free). The replay must decode it
  // consistently and deliver a verdict; if it confirms blockage, the
  // state is unreachable (pruned by the invariant), which replay-from-
  // state cannot see — but the per-claim verdicts must be internally
  // consistent and the minimization sound.
  testing::RunningExample rx;
  core::VerifyOptions vo;
  vo.backend = GetParam();
  vo.use_invariants = false;
  vo.witness_replay = true;
  vo.timeout_ms = testing::test_timeout_ms(60'000);
  const core::VerifyResult r = core::verify(rx.net, vo);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value());
  const Witness& w = *r.witness;
  EXPECT_TRUE(w.consistent) << w.to_string();
  ASSERT_TRUE(w.replayed);
  ASSERT_EQ(w.claims.size(), r.report.fired.size());
  if (w.blocked) {
    EXPECT_TRUE(w.minimal);
    expect_no_proper_subset_blocked(rx.net, w);
  } else {
    const bool any_not_confirmed =
        std::any_of(w.claims.begin(), w.claims.end(), [](const auto& c) {
          return c.status != ClaimStatus::Confirmed;
        });
    EXPECT_TRUE(any_not_confirmed) << w.to_string();
  }
}

TEST_P(WitnessBackend, Fig1WithInvariantsHasNoWitness) {
  testing::RunningExample rx;
  core::VerifyOptions vo;
  vo.backend = GetParam();
  vo.witness_replay = true;
  vo.timeout_ms = testing::test_timeout_ms(60'000);
  const core::VerifyResult r = core::verify(rx.net, vo);
  EXPECT_EQ(r.report.result, smt::SatResult::Unsat);
  EXPECT_FALSE(r.witness.has_value());
}

/// 2x2 mesh whose node automata inject but never consume: every packet
/// wedges at its destination and the fabric deadlocks for real.
struct StuckMesh {
  Network net;
  explicit StuckMesh(std::size_t link_capacity = 2) {
    const int nodes = 4;
    std::vector<noc::NodeHook> hooks;
    for (int n = 0; n < nodes; ++n) {
      const int dst = n == 0 ? nodes - 1 : 0;
      const ColorId pkt = net.colors().intern("pkt", n, dst);
      const ColorId tok = net.colors().intern("tok", n, n);
      aut::AutomatonBuilder b("node" + std::to_string(n), {"s"});
      b.in_ports(2).out_ports(1);
      b.on("s", 1, tok).emit(0, pkt).label("inject" + std::to_string(n));
      const PrimId prim = net.add_automaton(b.build());
      hooks.push_back(noc::NodeHook{prim, 0, 0});
      net.connect(net.add_source("core" + std::to_string(n), {tok}), 0, prim,
                  1);
    }
    noc::MeshConfig config;
    config.link_capacity = link_capacity;
    noc::build_mesh(net, config, hooks);
  }
};

TEST(WitnessMesh, StuckConsumersConfirmedBlocked) {
  StuckMesh m;
  core::VerifyOptions vo;
  vo.witness_replay = true;
  vo.witness_max_states = 200'000;
  vo.timeout_ms = testing::test_timeout_ms(120'000);
  const core::VerifyResult r = core::verify(m.net, vo);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value());
  const Witness& w = *r.witness;
  EXPECT_TRUE(w.consistent) << w.to_string();
  ASSERT_TRUE(w.replayed);
  ASSERT_FALSE(w.claims.empty());
  if (w.blocked) {
    EXPECT_TRUE(w.minimal);
    expect_no_proper_subset_blocked(m.net, w);
  } else {
    // Bounded replay may run out of budget on the fabric state space, but
    // it must never silently claim confirmation.
    for (const auto& c : w.claims) {
      EXPECT_NE(c.note, "") << c.tag;
    }
  }
}

TEST(WitnessMi, Fig3DeadlockCandidateReplayed) {
  // The paper's Fig. 3 cross-layer deadlock (MI protocol on a 2x2 mesh,
  // queue capacity 2): the deadlock is real and reachable.
  coh::MiAbstractConfig config;
  config.queue_capacity = 2;
  coh::MiAbstractSystem sys = coh::build_mi_abstract(config);
  core::VerifyOptions vo;
  vo.witness_replay = true;
  vo.witness_max_states = 20'000;
  vo.timeout_ms = testing::test_timeout_ms(120'000);
  const core::VerifyResult r = core::verify(sys.net, vo);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value());
  const Witness& w = *r.witness;
  EXPECT_TRUE(w.consistent) << w.to_string();
  ASSERT_TRUE(w.replayed);
  ASSERT_FALSE(w.claims.empty());
  EXPECT_GT(w.states_explored, 0u);
  // Every claim verdict must carry its evidence or its budget note.
  for (const auto& c : w.claims) {
    if (c.status != ClaimStatus::Confirmed) {
      EXPECT_FALSE(c.note.empty()) << c.tag;
    }
  }
  if (w.blocked) expect_no_proper_subset_blocked(sys.net, w);
}

TEST(WitnessDecode, InconsistentModelIsRejected) {
  // A hand-built model that over-fills the queue and activates two
  // automaton states must be flagged, not replayed.
  testing::RunningExample rx;
  const xmas::Typing typing = xmas::Typing::derive(rx.net);
  smt::Model model;
  model.set_int(occ_var_name(rx.net, rx.q0, rx.req), 99);
  model.set_int(state_var_name(rx.net, 0, 0), 1);
  model.set_int(state_var_name(rx.net, 0, 1), 1);
  const Witness w = deadlock::build_witness(
      rx.net, typing, model, {"packet_stuck:q0"}, {});
  EXPECT_FALSE(w.consistent);
  EXPECT_FALSE(w.replayed);
  EXPECT_FALSE(w.blocked);
  EXPECT_FALSE(w.inconsistencies.empty());
}

TEST(WitnessEvents, EffectSummariesMatchLabels) {
  // The structured Event effects the replay relies on: a source injection
  // pushes without popping; a queue-initiated transfer pops its queue.
  JoinStarvation n;
  const sim::Simulator sim(n.net);
  const sim::State init = sim.initial();
  const auto events = sim.events(init);
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_EQ(e.initiator, n.src) << e.label;
    ASSERT_EQ(e.effects.pushes.size(), 1u);
    EXPECT_EQ(sim.queue_prim(e.effects.pushes[0].first), n.q);
    EXPECT_TRUE(e.effects.pops.empty());
  }
  // After the push, the queue is full and the join still starves: the
  // deadlock state is quiescent.
  EXPECT_TRUE(sim.is_deadlock(events[0].next));
}


// ---- Pinned replays on the 3x3 MI mesh (native backend, so the Sat model
// and with it the decoded state are deterministic). The figures were
// captured on the std::vector<std::vector<ColorId>> replay that the packed
// replay replaced; any change to the BFS order, the budget rule or the
// claim logic moves them.

xmas::Network mi3x3(int directory, std::size_t capacity) {
  coh::MiAbstractConfig config;
  config.width = 3;
  config.height = 3;
  config.directory_node = directory;
  config.queue_capacity = capacity;
  return std::move(coh::build_mi_abstract(config).net);
}

core::VerifyResult verify_with_witness(const Network& net,
                                       std::size_t max_states) {
  core::VerifyOptions vo;
  vo.backend = smt::Backend::Native;
  vo.witness_replay = true;
  vo.witness_max_states = max_states;
  vo.timeout_ms = testing::test_timeout_ms(120'000);
  return core::verify(net, vo);
}

std::vector<std::string> claim_lines(
    const std::vector<deadlock::WitnessClaim>& claims) {
  std::vector<std::string> out;
  for (const auto& c : claims) {
    out.push_back(c.tag + " " + deadlock::to_string(c.status) + " " + c.note);
  }
  return out;
}

TEST(WitnessPin, Mi3x3Dir3Capacity4ConfirmedAndMinimal) {
  const Network net = mi3x3(3, 4);
  const core::VerifyResult r = verify_with_witness(net, 50'000);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value());
  const Witness& w = *r.witness;
  EXPECT_TRUE(w.consistent);
  EXPECT_TRUE(w.replayed);
  EXPECT_EQ(w.states_explored, 12'500u);
  EXPECT_TRUE(w.exhaustive);
  EXPECT_TRUE(w.blocked) << w.to_string();
  EXPECT_TRUE(w.minimal);
  EXPECT_EQ(w.blocking_queues, (std::vector<std::string>{"q_3_S", "q_6_N"}));
  EXPECT_EQ(claim_lines(w.claims),
            (std::vector<std::string>{
                "source_blocked:core1 confirmed ",
                "source_blocked:core3 confirmed ",
                "source_blocked:core5 confirmed ",
                "source_blocked:core6 confirmed ",
                "packet_stuck:q_3_S confirmed stuck color: get(7->3)",
                "packet_stuck:q_6_N confirmed stuck color: inv(3->6)",
                "dead:cache1 confirmed ",
                "dead:dir confirmed ",
                "dead:cache5 confirmed ",
                "dead:cache6 confirmed ",
            }));
  EXPECT_EQ(w.state_text,
            "q_3_S: [get(7->3), put(7->3), get(8->3), put(8->3)]\n"
            "q_6_N: [inv(3->6), inv(3->6), inv(3->6), inv(3->6)]\n"
            "cache0: MI\ncache1: MI\ncache2: MI\ndir: M(6)\ncache4: MI\n"
            "cache5: MI\ncache6: M\ncache7: MI\ncache8: MI\n");
  // The witness reports its cost: 14 minimization probes, each stopped at
  // its first refuted claim.
  EXPECT_EQ(w.minimize_replays, 14u);
  EXPECT_EQ(w.minimize_states, 18'667u);
  EXPECT_GT(w.replay_seconds, 0.0);
  const std::string json = w.to_json();
  EXPECT_NE(json.find("\"minimize_replays\":14,\"minimize_states\":18667"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"replay_seconds\":"), std::string::npos);
}

TEST(WitnessPin, Mi3x3Dir0Capacity10TruncatedAtBudget) {
  const Network net = mi3x3(0, 10);
  const core::VerifyResult r = verify_with_witness(net, 5'000);
  ASSERT_EQ(r.report.result, smt::SatResult::Sat);
  ASSERT_TRUE(r.witness.has_value());
  const Witness& w = *r.witness;
  EXPECT_TRUE(w.replayed);
  EXPECT_EQ(w.states_explored, 5'000u);
  EXPECT_FALSE(w.exhaustive);
  EXPECT_FALSE(w.blocked);
  EXPECT_FALSE(w.minimal);
  EXPECT_TRUE(w.blocking_queues.empty());
  EXPECT_EQ(w.minimize_replays, 0u);
  EXPECT_EQ(w.minimize_states, 0u);
  const std::string budget = " inconclusive state budget exhausted";
  EXPECT_EQ(claim_lines(w.claims),
            (std::vector<std::string>{
                "source_blocked:core0" + budget,
                "source_blocked:core2" + budget,
                "source_blocked:core3" + budget,
                "packet_stuck:q_0_S" + budget,
                "packet_stuck:q_3_N" + budget,
                "dead:dir" + budget,
                "dead:cache2" + budget,
                "dead:cache3" + budget,
            }));
}

TEST(WitnessPin, RefutedClaimsCarryTheirEvent) {
  // Emptying either blocking queue of the dir-3 witness breaks it; the
  // refuting events are pinned by label.
  const Network net = mi3x3(3, 4);
  const core::VerifyResult r = verify_with_witness(net, 50'000);
  ASSERT_TRUE(r.witness.has_value() && r.witness->blocked);
  const sim::Simulator sim(net);
  const auto replay_without = [&](const std::string& queue,
                                  std::size_t* states) {
    sim::State probe = r.witness->state;
    for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
      if (net.prim(sim.queue_prim(static_cast<int>(qi))).name == queue) {
        probe.queues[qi].clear();
      }
    }
    std::vector<std::string> tags;
    for (const auto& c : r.witness->claims) {
      if (c.tag != "packet_stuck:" + queue) tags.push_back(c.tag);
    }
    bool exhaustive = false;
    const auto verdicts = deadlock::replay_claims(net, probe, tags, 50'000,
                                                  states, &exhaustive);
    EXPECT_TRUE(exhaustive);
    return claim_lines(verdicts);
  };
  std::size_t states = 0;
  EXPECT_EQ(replay_without("q_6_N", &states),
            (std::vector<std::string>{
                "source_blocked:core1 confirmed ",
                "source_blocked:core3 refuted reachable injection: "
                "core3!tok(3->3)",
                "source_blocked:core5 confirmed ",
                "source_blocked:core6 confirmed ",
                "packet_stuck:q_3_S confirmed stuck color: get(7->3)",
                "dead:cache1 confirmed ",
                "dead:dir refuted reachable transition: core3!tok(3->3)",
                "dead:cache5 confirmed ",
                "dead:cache6 confirmed ",
            }));
  EXPECT_EQ(states, 5u);
  EXPECT_EQ(replay_without("q_3_S", &states),
            (std::vector<std::string>{
                "source_blocked:core1 confirmed ",
                "source_blocked:core3 refuted reachable injection: "
                "core3!tok(3->3)",
                "source_blocked:core5 confirmed ",
                "source_blocked:core6 refuted reachable injection: "
                "core6!repl(6->6)",
                "packet_stuck:q_6_N refuted every stored color has a "
                "reachable pop",
                "dead:cache1 confirmed ",
                "dead:dir refuted reachable transition: q_3_S>put(6->3)",
                "dead:cache5 confirmed ",
                "dead:cache6 refuted reachable transition: core6!repl(6->6)",
            }));
  EXPECT_EQ(states, 31u);
}

}  // namespace
}  // namespace advocat
