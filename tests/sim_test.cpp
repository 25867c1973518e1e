// Executable semantics: transfer-event enumeration and BFS exploration.
#include <gtest/gtest.h>

#include "automata/builder.hpp"
#include "coherence/mi_abstract.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"
#include "xmas/network.hpp"

namespace advocat::sim {
namespace {

using xmas::ColorId;
using xmas::Network;
using xmas::PrimId;

// source -> queue -> sink pipeline.
struct Pipeline {
  Network net;
  PrimId q;
  Pipeline(std::size_t cap, bool fair_sink) {
    const ColorId d = net.colors().intern("d");
    const PrimId src = net.add_source("src", {d});
    q = net.add_queue("q", cap);
    const PrimId sink = net.add_sink("sink", fair_sink);
    net.connect(src, 0, q, 0);
    net.connect(q, 0, sink, 0);
  }
};

TEST(Simulator, SourceInjectsAndSinkConsumes) {
  Pipeline p(2, /*fair_sink=*/true);
  Simulator sim(p.net);
  const State init = sim.initial();
  const auto events = sim.events(init);
  // Only injection possible from the empty state.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].next.queues[0].size(), 1u);
  // From one stored packet: inject another or consume.
  const auto events2 = sim.events(events[0].next);
  EXPECT_EQ(events2.size(), 2u);
}

TEST(Simulator, DeadSinkWedgesTheQueue) {
  Pipeline p(2, /*fair_sink=*/false);
  Simulator sim(p.net);
  const ExploreResult r = explore(sim);
  ASSERT_TRUE(r.deadlock.has_value());
  // Deadlock: queue full, sink never consumes.
  EXPECT_EQ(r.deadlock->queues[0].size(), 2u);
  EXPECT_EQ(r.trace.size(), 2u);  // two injections
  EXPECT_TRUE(r.complete || r.deadlock.has_value());
}

TEST(Simulator, FairSinkNeverDeadlocks) {
  Pipeline p(3, /*fair_sink=*/true);
  Simulator sim(p.net);
  const ExploreResult r = explore(sim);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.deadlock.has_value());
  EXPECT_EQ(r.states_visited, 4u);  // fill levels 0..3
}

TEST(Simulator, ForkNeedsBothOutputs) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId src = net.add_source("src", {d});
  const PrimId fork = net.add_fork("fork");
  const PrimId qa = net.add_queue("qa", 1);
  const PrimId qb = net.add_queue("qb", 1);
  const PrimId sa = net.add_sink("sa");
  const PrimId sb = net.add_sink("sb", /*fair=*/false);
  net.connect(src, 0, fork, 0);
  net.connect(fork, 0, qa, 0);
  net.connect(fork, 1, qb, 0);
  net.connect(qa, 0, sa, 0);
  net.connect(qb, 0, sb, 0);

  Simulator sim(net);
  State s = sim.initial();
  // First injection duplicates into both queues.
  auto events = sim.events(s);
  bool found_dup = false;
  for (const auto& e : events) {
    if (e.next.queues[0].size() == 1 && e.next.queues[1].size() == 1)
      found_dup = true;
    // A fork transfer is all-or-nothing.
    EXPECT_EQ(e.next.queues[0].size(), e.next.queues[1].size());
  }
  EXPECT_TRUE(found_dup);
  // qb never drains (dead sink): once full, no further injection possible.
  const ExploreResult r = explore(sim);
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.deadlock->queues[1].size(), 1u);
}

TEST(Simulator, JoinPairsDataWithToken) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const ColorId t = net.colors().intern("t");
  const PrimId data_q = net.add_queue("dq", 1);
  const PrimId tok_q = net.add_queue("tq", 1);
  const PrimId join = net.add_join("join");
  const PrimId out_q = net.add_queue("oq", 2);
  net.connect(net.add_source("ds", {d}), 0, data_q, 0);
  net.connect(net.add_source("ts", {t}), 0, tok_q, 0);
  net.connect(data_q, 0, join, 0);
  net.connect(tok_q, 0, join, 1);
  net.connect(join, 0, out_q, 0);
  net.connect(out_q, 0, net.add_sink("sink"), 0);

  Simulator sim(net);
  // Fill only the data queue: join must not fire.
  State s = sim.initial();
  s.queues[0] = {d};
  for (const auto& e : sim.events(s)) {
    // No event may put anything into the output queue yet...
    if (!e.next.queues[2].empty()) {
      // ...unless the token arrived in the same transfer (token source
      // offering directly through the token queue is impossible: queues
      // store, they do not pass through combinationally).
      ADD_FAILURE() << "join fired without a stored token: " << e.label;
    }
  }
  // With both stored, the join can fire and consumes both.
  s.queues[1] = {t};
  bool fired = false;
  for (const auto& e : sim.events(s)) {
    if (!e.next.queues[2].empty()) {
      fired = true;
      EXPECT_TRUE(e.next.queues[0].empty());
      EXPECT_TRUE(e.next.queues[1].empty());
      EXPECT_EQ(e.next.queues[2][0], d);  // join copies the data input
    }
  }
  EXPECT_TRUE(fired);
}

TEST(Simulator, BagQueueOffersAnyColorFifoOnlyHead) {
  Network net;
  const ColorId a = net.colors().intern("a");
  const ColorId b = net.colors().intern("b");
  for (bool fifo : {true, false}) {
    Network n2;
    const ColorId a2 = n2.colors().intern("a");
    const ColorId b2 = n2.colors().intern("b");
    const PrimId q = n2.add_queue("q", 2, fifo);
    const PrimId sw = n2.add_switch(
        "sw", 2, [a2](ColorId c) { return c == a2 ? 0 : 1; });
    n2.connect(n2.add_source("src", {a2, b2}), 0, q, 0);
    n2.connect(q, 0, sw, 0);
    n2.connect(sw, 0, n2.add_sink("sa"), 0);
    n2.connect(sw, 1, n2.add_sink("sb", /*fair=*/false), 0);

    Simulator sim(n2);
    State s = sim.initial();
    s.queues[0] = {b2, a2};  // b at the head; only a is consumable
    std::size_t consuming = 0;
    for (const auto& e : sim.events(s)) {
      if (e.next.queues[0].size() == 1) ++consuming;
    }
    if (fifo) {
      EXPECT_EQ(consuming, 0u) << "FIFO: head b is stuck at the dead sink";
    } else {
      EXPECT_EQ(consuming, 1u) << "bag: a can overtake the stuck b";
    }
  }
  (void)a;
  (void)b;
}

TEST(Simulator, AutomatonConsumesAndEmitsAtomically) {
  Network net;
  const ColorId ping = net.colors().intern("ping");
  const ColorId pong = net.colors().intern("pong");
  aut::AutomatonBuilder b("echo", {"s"});
  b.in_ports(1).out_ports(1);
  b.on("s", 0, ping).emit(0, pong).label("echo");
  const PrimId prim = net.add_automaton(b.build());
  const PrimId in_q = net.add_queue("in", 1);
  const PrimId out_q = net.add_queue("out", 1);
  net.connect(net.add_source("src", {ping}), 0, in_q, 0);
  net.connect(in_q, 0, prim, 0);
  net.connect(prim, 0, out_q, 0);
  net.connect(out_q, 0, net.add_sink("sink"), 0);

  Simulator sim(net);
  State s = sim.initial();
  s.queues[0] = {ping};
  s.queues[1] = {pong};  // out queue full: the transition cannot fire
  for (const auto& e : sim.events(s)) {
    // ping may only be consumed if its pong found a slot — possibly freed
    // by the same event draining the out queue.
    if (e.next.queues[0].empty()) {
      EXPECT_FALSE(e.next.queues[1].empty()) << e.label;
    }
  }
  // After draining the out queue, the echo fires.
  State s2 = sim.initial();
  s2.queues[0] = {ping};
  bool echoed = false;
  for (const auto& e : sim.events(s2)) {
    if (e.next.queues[1].size() == 1 && e.next.queues[0].empty()) {
      EXPECT_EQ(e.next.queues[1][0], pong);
      echoed = true;
    }
  }
  EXPECT_TRUE(echoed);
}

TEST(Explorer, RespectsStateBudget) {
  Pipeline p(64, /*fair_sink=*/true);
  Simulator sim(p.net);
  ExploreOptions options;
  options.max_states = 10;
  const ExploreResult r = explore(sim, options);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.deadlock.has_value());
}

TEST(Explorer, TraceReplaysToDeadlock) {
  Pipeline p(3, /*fair_sink=*/false);
  Simulator sim(p.net);
  const ExploreResult r = explore(sim);
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.trace.size(), 3u);
  for (const auto& label : r.trace) {
    EXPECT_NE(label.find("src"), std::string::npos);
  }
}

TEST(Simulator, PackRoundTripsAndRejectsWhatDoesNotFit) {
  Pipeline p(2, /*fair_sink=*/true);
  const Simulator sim(p.net);
  State s = sim.initial();
  s.queues[0] = {0, 0};
  std::vector<std::uint8_t> packed;
  sim.pack(s, packed);
  EXPECT_EQ(packed, (std::vector<std::uint8_t>{2, 0, 0}));
  EXPECT_EQ(sim.unpack(packed.data()), s);
  s.queues[0].push_back(0);  // over capacity
  EXPECT_THROW(sim.pack(s, packed), std::invalid_argument);
  s.queues[0] = {7};  // no such colour
  EXPECT_THROW(sim.pack(s, packed), std::invalid_argument);
}

// ---- Pinned explorations. The figures were captured on the
// std::vector<std::vector<ColorId>> explorer that the packed explorer
// replaced; they move with any change to the event order or the budget
// rule.

Network mi2x2(std::size_t capacity) {
  coh::MiAbstractConfig config;
  config.queue_capacity = capacity;
  return std::move(coh::build_mi_abstract(config).net);
}

TEST(ExplorerPin, Mi2x2Capacity2ReachesTheFig3Deadlock) {
  const Network net = mi2x2(2);
  const Simulator sim(net);
  EXPECT_EQ(sim.element_bytes(), 1u);
  ExploreOptions options;
  options.max_states = 500'000;
  const ExploreResult r = explore(sim, options);
  EXPECT_EQ(r.states_visited, 1'012u);
  EXPECT_EQ(r.events_fired, 2'985u);
  EXPECT_FALSE(r.complete);
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.trace, (std::vector<std::string>{
                         "core0!miss(0->0)", "core0!repl(0->0)",
                         "core1!miss(1->1)", "core2!miss(2->2)",
                         "core2!repl(2->2)", "q_1_W>get(0->3)",
                         "q_3_N>get(1->3)", "core3!tok(3->3)",
                         "core3!tok(3->3)", "q_1_W>put(0->3)"}));
  EXPECT_EQ(sim.describe(*r.deadlock),
            "q_1_S: [inv(3->1), inv(3->1)]\n"
            "q_3_W: [get(2->3), put(2->3)]\n"
            "q_3_N: [get(0->3), put(0->3)]\n"
            "cache0: MI\ncache1: M\ncache2: MI\ndir: M(1)\n");
}

TEST(ExplorerPin, Mi2x2Capacity3IsExhaustivelyFree) {
  const Network net = mi2x2(3);
  const Simulator sim(net);
  ExploreOptions options;
  options.max_states = 500'000;
  const ExploreResult r = explore(sim, options);
  EXPECT_EQ(r.states_visited, 62'297u);
  EXPECT_EQ(r.events_fired, 348'419u);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.deadlock.has_value());
  EXPECT_TRUE(r.trace.empty());
}

// Nets whose values do not fit one byte. A dead sink behind a queue of
// capacity 300 reaches exactly the 301 fill levels; the last one is the
// deadlock, reached by 300 injections.
TEST(Simulator, CapacityAbove255PacksWide) {
  Pipeline p(300, /*fair_sink=*/false);
  const Simulator sim(p.net);
  EXPECT_EQ(sim.element_bytes(), 2u);
  const ExploreResult r = explore(sim);
  EXPECT_EQ(r.states_visited, 301u);
  EXPECT_EQ(r.events_fired, 300u);
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.deadlock->queues[0].size(), 300u);
  EXPECT_EQ(r.trace.size(), 300u);
}

// A source of 300 colours in front of a one-slot queue and a dead sink:
// the empty state plus one full state per colour, every full state a
// deadlock (the last one found is reported).
TEST(Simulator, ManyColoursPackWide) {
  Network net;
  xmas::ColorSet colours;
  for (int i = 0; i < 300; ++i) {
    colours.push_back(
        net.colors().intern(std::string("c").append(std::to_string(i))));
  }
  const PrimId src = net.add_source("src", colours);
  const PrimId q = net.add_queue("q", 1);
  net.connect(src, 0, q, 0);
  net.connect(q, 0, net.add_sink("sink", /*fair=*/false), 0);
  const Simulator sim(net);
  EXPECT_EQ(sim.element_bytes(), 2u);
  ExploreOptions options;
  options.stop_at_deadlock = false;
  const ExploreResult r = explore(sim, options);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.states_visited, 301u);
  EXPECT_EQ(r.events_fired, 300u);
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.trace, std::vector<std::string>{"src!c299"});
  EXPECT_EQ(sim.describe(*r.deadlock), "q: [c299]\n");
}

// A queue of capacity 70,000 between a dead source and a fair sink: from
// one stored packet the only event drains it, and the empty queue is
// quiescent without being a deadlock (nothing wants to move).
TEST(Simulator, CapacityAbove65535PacksWidest) {
  Network net;
  const ColorId d = net.colors().intern("d");
  const PrimId src = net.add_source("src", {d}, /*fair=*/false);
  const PrimId q = net.add_queue("q", 70'000);
  net.connect(src, 0, q, 0);
  net.connect(q, 0, net.add_sink("sink"), 0);
  const Simulator sim(net);
  EXPECT_EQ(sim.element_bytes(), 4u);
  State s = sim.initial();
  s.queues[0] = {d};
  const auto events = sim.events(s);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].label, "q>d");
  EXPECT_TRUE(events[0].next.queues[0].empty());
  EXPECT_FALSE(sim.is_deadlock(events[0].next));
  EXPECT_FALSE(sim.is_deadlock(s));
}

}  // namespace
}  // namespace advocat::sim
