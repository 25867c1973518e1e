// Block/idle deadlock encoder: primitive-level behaviour on small,
// hand-analyzable networks. Every solver-backed test runs on each
// available backend; the verdicts must agree.
#include <gtest/gtest.h>

#include "advocat/verifier.hpp"
#include "automata/builder.hpp"
#include "backend_fixture.hpp"
#include "deadlock/checker.hpp"
#include "deadlock/encoder.hpp"
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

}  // namespace
}  // namespace advocat::deadlock
