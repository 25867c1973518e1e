// Block/idle deadlock encoder: primitive-level behaviour on small,
// hand-analyzable networks. Every solver-backed test runs on each
// available backend; the verdicts must agree.
#include <gtest/gtest.h>

#include <string_view>

#include "advocat/verifier.hpp"
#include "automata/builder.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_abstract.hpp"
#include "deadlock/checker.hpp"
#include "deadlock/encoder.hpp"
#include "invariants/generator.hpp"
#include "smt/smtlib.hpp"
#include "xmas/typing.hpp"

namespace advocat::deadlock {
namespace {

using xmas::ColorId;
using xmas::Network;
using xmas::PrimId;

class Deadlock : public advocat::testing::BackendTest {
 protected:
  // The bare block/idle query: no invariants conjoined.
  Report run(const Network& net) {
    core::VerifyOptions o;
    o.use_invariants = false;
    o.backend = GetParam();
    return core::verify(net, o).report;
  }
};
ADVOCAT_INSTANTIATE_BACKENDS(Deadlock);

TEST_P(Deadlock, FairPipelineIsFree) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId q = net.add_queue("q", 2);
  net.connect(net.add_source("src", {d}), 0, q, 0);
  net.connect(q, 0, net.add_sink("sink"), 0);
  EXPECT_TRUE(run(net).deadlock_free());
}

TEST_P(Deadlock, DeadSinkBlocks) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId q = net.add_queue("q", 2);
  net.connect(net.add_source("src", {d}), 0, q, 0);
  net.connect(q, 0, net.add_sink("sink", /*fair=*/false), 0);
  const Report r = run(net);
  ASSERT_FALSE(r.deadlock_free());
  // The stall is reported against the source or the queue in front of the
  // dead sink. Which disjunct carries it is model-dependent (backends may
  // return different witnesses), but one of the two must fire.
  ASSERT_FALSE(r.fired.empty());
  bool stall_reported = false;
  for (const auto& tag : r.fired) {
    if (tag == "source_blocked:src" || tag == "packet_stuck:q") {
      stall_reported = true;
    }
  }
  EXPECT_TRUE(stall_reported);
}

TEST_P(Deadlock, ForkWithOneDeadBranchBlocks) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId fork = net.add_fork("fork");
  const PrimId qa = net.add_queue("qa", 1);
  const PrimId qb = net.add_queue("qb", 1);
  net.connect(net.add_source("src", {d}), 0, fork, 0);
  net.connect(fork, 0, qa, 0);
  net.connect(fork, 1, qb, 0);
  net.connect(qa, 0, net.add_sink("sa"), 0);
  net.connect(qb, 0, net.add_sink("sb", /*fair=*/false), 0);
  EXPECT_FALSE(run(net).deadlock_free());
}

TEST_P(Deadlock, JoinWithStarvedTokenBlocks) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const ColorId t = net.colors().intern("t");
  const PrimId join = net.add_join("join");
  const PrimId dq = net.add_queue("dq", 1);
  const PrimId tq = net.add_queue("tq", 1);
  net.connect(net.add_source("data", {d}), 0, dq, 0);
  // Token source is dead: the join can never fire.
  net.connect(net.add_source("tok", {t}, /*fair=*/false), 0, tq, 0);
  net.connect(dq, 0, join, 0);
  net.connect(tq, 0, join, 1);
  net.connect(join, 0, net.add_sink("sink"), 0);
  EXPECT_FALSE(run(net).deadlock_free());
}

TEST_P(Deadlock, JoinWithFairTokenIsFree) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const ColorId t = net.colors().intern("t");
  const PrimId join = net.add_join("join");
  const PrimId dq = net.add_queue("dq", 1);
  const PrimId tq = net.add_queue("tq", 1);
  net.connect(net.add_source("data", {d}), 0, dq, 0);
  net.connect(net.add_source("tok", {t}), 0, tq, 0);
  net.connect(dq, 0, join, 0);
  net.connect(tq, 0, join, 1);
  net.connect(join, 0, net.add_sink("sink"), 0);
  EXPECT_TRUE(run(net).deadlock_free());
}

TEST_P(Deadlock, SwitchRoutesAroundDeadBranch) {
  // Only color a flows; the dead branch is never exercised, so the system
  // is free even though one sink is dead.
  Network net;
  const ColorId a = net.colors().intern("a");
  const PrimId q = net.add_queue("q", 1);
  const PrimId sw = net.add_switch("sw", 2, [a](ColorId c) {
    return c == a ? 0 : 1;
  });
  net.connect(net.add_source("src", {a}), 0, q, 0);
  net.connect(q, 0, sw, 0);
  net.connect(sw, 0, net.add_sink("live"), 0);
  net.connect(sw, 1, net.add_sink("dead", /*fair=*/false), 0);
  EXPECT_TRUE(run(net).deadlock_free());
}

TEST_P(Deadlock, AutomatonRefusingAColorBlocks) {
  // An automaton that never consumes color b: a b-packet wedges the queue.
  Network net;
  const ColorId a = net.colors().intern("a");
  const ColorId b = net.colors().intern("b");
  aut::AutomatonBuilder builder("eater", {"s"});
  builder.in_ports(1).out_ports(0);
  builder.on("s", 0, a).label("eat_a");
  const PrimId prim = net.add_automaton(builder.build());
  const PrimId q = net.add_queue("q", 1);
  net.connect(net.add_source("src", {a, b}), 0, q, 0);
  net.connect(q, 0, prim, 0);
  const Report r = run(net);
  EXPECT_FALSE(r.deadlock_free());
}

TEST_P(Deadlock, WitnessDecodingNamesQueuesAndStates) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId q = net.add_queue("wedged", 2);
  net.connect(net.add_source("src", {d}), 0, q, 0);
  net.connect(q, 0, net.add_sink("sink", /*fair=*/false), 0);
  const Report r = run(net);
  ASSERT_FALSE(r.deadlock_free());
  ASSERT_FALSE(r.queue_contents.empty());
  EXPECT_NE(r.queue_contents[0].find("wedged"), std::string::npos);
  EXPECT_NE(r.to_string().find("deadlock candidate"), std::string::npos);
}

TEST(DeadlockEncoding, IsSerializableAsSmtLib) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId q = net.add_queue("q", 2);
  net.connect(net.add_source("src", {d}), 0, q, 0);
  net.connect(q, 0, net.add_sink("sink"), 0);
  const xmas::Typing typing = xmas::Typing::derive(net);
  smt::ExprFactory f;
  Encoder encoder(net, typing, f);
  const Encoding enc = encoder.encode();
  const std::string text = to_smtlib(f, enc.all_assertions());
  EXPECT_NE(text.find("(set-logic"), std::string::npos);
  EXPECT_NE(text.find("check-sat"), std::string::npos);
  EXPECT_THROW(encoder.encode(), std::logic_error);  // single-shot
}

// Bag vs FIFO queue block equations: a bag with one consumable packet in a
// full queue does not block its input; a FIFO might.
TEST_P(Deadlock, BagQueueBlocksOnlyWhenAllStoredStuck) {
  for (bool fifo : {true, false}) {
    Network net;
    const ColorId a = net.colors().intern("a");
    const ColorId b = net.colors().intern("b");
    const PrimId q = net.add_queue("q", 1, fifo);
    const PrimId sw = net.add_switch("sw", 2, [a](ColorId c) {
      return c == a ? 0 : 1;
    });
    net.connect(net.add_source("src", {a, b}), 0, q, 0);
    net.connect(q, 0, sw, 0);
    net.connect(sw, 0, net.add_sink("live"), 0);
    net.connect(sw, 1, net.add_sink("dead", /*fair=*/false), 0);
    // Either way a b-packet can wedge the single-slot queue.
    EXPECT_FALSE(run(net).deadlock_free()) << "fifo=" << fifo;
  }
}

// Pins a whole session's expression table: the encoder's nodes, then the
// invariants built into the same factory, as a Verifier constructs them.
// Node ids, the variable order and the definitions feed every solver
// counter, so a factory or encoder change must leave all of them as they
// are. Everything is folded into one FNV-1a-64 hash per session.
struct EncodingPin {
  std::size_t nodes = 0;
  std::size_t definitions = 0;
  std::uint64_t variables = 0;
  std::uint64_t table = 0;
};

EncodingPin pin_session(int k, int dir, bool symbolic) {
  std::uint64_t h = 0;
  auto reset = [&h] { h = 0xcbf29ce484222325ULL; };
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xffU)) * 0x100000001b3ULL;
    }
  };
  auto mix_text = [&](std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0x0aU);
  };
  coh::MiAbstractConfig config;
  config.width = k;
  config.height = k;
  config.directory_node = dir;
  const coh::MiAbstractSystem sys = coh::build_mi_abstract(config);
  const xmas::Typing typing = xmas::Typing::derive(sys.net);
  smt::ExprFactory f;
  Encoder encoder(sys.net, typing, f, {.symbolic_capacities = symbolic});
  const Encoding enc = encoder.encode();
  const std::vector<smt::ExprId> invariants =
      inv::generate(sys.net, typing).to_smt(f);

  EncodingPin pin;
  pin.nodes = f.size();
  pin.definitions = enc.definitions.size();
  reset();
  for (const auto& [name, is_bool] : f.variables()) {
    mix_text(name);
    mix(is_bool ? 1 : 0);
  }
  pin.variables = h;
  reset();
  for (std::size_t id = 0; id < f.size(); ++id) {
    const auto& n = f.node(static_cast<smt::ExprId>(id));
    mix(static_cast<std::uint64_t>(n.op));
    mix(static_cast<std::uint64_t>(n.value));
    mix_text(n.name);
    mix(n.kids.size());
    for (const smt::ExprId kid : n.kids) mix(static_cast<std::uint64_t>(kid));
  }
  for (const smt::ExprId e : enc.all_assertions()) mix(static_cast<std::uint64_t>(e));
  for (const auto& [tag, e] : enc.disjuncts) {
    mix_text(tag);
    mix(static_cast<std::uint64_t>(e));
  }
  for (const smt::ExprId e : invariants) mix(static_cast<std::uint64_t>(e));
  pin.table = h;
  return pin;
}

TEST(DeadlockEncoding, SessionExpressionTablePinned) {
  struct Case {
    int k;
    int dir;
    bool symbolic;
    EncodingPin want;
  };
  const Case cases[] = {
      {2, 0, false, {682, 186, 0x3cf9aa4ec042e061ULL, 0xc13c77c9e24bb73fULL}},
      {2, 0, true, {697, 186, 0x40efaad0a45e9721ULL, 0x39f42b95f8ed7f06ULL}},
      {3, 4, false, {1898, 523, 0x6d3bc2db066c8df0ULL, 0x234f8beaf2855958ULL}},
      {3, 4, true, {1945, 523, 0xb990f20862bed4f0ULL, 0xf3e308e1afcc7b37ULL}},
  };
  for (const Case& c : cases) {
    const EncodingPin got = pin_session(c.k, c.dir, c.symbolic);
    SCOPED_TRACE(::testing::Message() << c.k << "x" << c.k << " dir " << c.dir
                                      << (c.symbolic ? " symbolic" : " plain"));
    EXPECT_EQ(got.nodes, c.want.nodes);
    EXPECT_EQ(got.definitions, c.want.definitions);
    EXPECT_EQ(got.variables, c.want.variables);
    EXPECT_EQ(got.table, c.want.table);
  }
}

}  // namespace
}  // namespace advocat::deadlock
