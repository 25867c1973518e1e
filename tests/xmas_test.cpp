// xMAS core: colors, network construction, typing, DOT export.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "xmas/color.hpp"
#include "xmas/dot_export.hpp"
#include "xmas/network.hpp"
#include "xmas/typing.hpp"

namespace advocat::xmas {
namespace {

TEST(ColorTable, InternsAndDeduplicates) {
  ColorTable table;
  const ColorId a = table.intern("get", 0, 3);
  const ColorId b = table.intern("get", 0, 3);
  const ColorId c = table.intern("get", 1, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.name(a), "get(0->3)");
  EXPECT_EQ(table.name(table.intern("tok")), "tok");
  EXPECT_EQ(table.name(table.intern("fwd", 3, 1, 2)), "fwd(3->1)#2");
}

TEST(ColorSet, SortedSetOperations) {
  ColorSet set;
  EXPECT_TRUE(set_insert(set, 5));
  EXPECT_TRUE(set_insert(set, 2));
  EXPECT_FALSE(set_insert(set, 5));
  EXPECT_EQ(set, (ColorSet{2, 5}));
  EXPECT_TRUE(set_contains(set, 2));
  EXPECT_FALSE(set_contains(set, 3));
  ColorSet other{3, 5};
  EXPECT_TRUE(set_union(set, other));
  EXPECT_EQ(set, (ColorSet{2, 3, 5}));
  EXPECT_FALSE(set_union(set, other));
}

TEST(Network, ConnectRejectsDoubleWiring) {
  Network net;
  const ColorId tok = net.colors().intern("tok");
  const PrimId src = net.add_source("src", {tok});
  const PrimId q = net.add_queue("q", 2);
  const PrimId sink = net.add_sink("sink");
  net.connect(src, 0, q, 0);
  EXPECT_THROW(net.connect(src, 0, q, 0), std::logic_error);
  EXPECT_THROW(net.connect(q, 5, sink, 0), std::out_of_range);
  net.connect(q, 0, sink, 0);
  EXPECT_FALSE(analysis::analyze(net).has_errors());
}

TEST(Network, BuilderParameterChecks) {
  Network net;
  EXPECT_THROW(net.add_queue("q", 0), std::invalid_argument);
  EXPECT_THROW(net.add_switch("s", 1, [](ColorId) { return 0; }),
               std::invalid_argument);
  EXPECT_THROW(net.add_merge("m", 1), std::invalid_argument);
}

TEST(Network, DesugaredPrimitiveCount) {
  Network net;
  const ColorId tok = net.colors().intern("tok");
  const PrimId src = net.add_source("src", {tok});
  const PrimId sw = net.add_switch("sw", 4, [](ColorId) { return 0; });
  const PrimId mg = net.add_merge("mg", 3);
  const PrimId sink = net.add_sink("sink");
  net.connect(src, 0, sw, 0);
  for (int i = 0; i < 4; ++i) {
    if (i < 3) net.connect(sw, i, mg, i);
  }
  net.connect(sw, 3, net.add_sink("s2"), 0);
  net.connect(mg, 0, sink, 0);
  // src(1) + sink(1) + s2(1) + 4-way switch(3 binary) + 3-way merge(2).
  EXPECT_EQ(net.num_prims_desugared(), 8u);
}

// Typing through a function/switch/merge diamond.
TEST(Typing, PropagatesThroughPrimitives) {
  Network net;
  auto& colors = net.colors();
  const ColorId red = colors.intern("red");
  const ColorId blue = colors.intern("blue");
  const ColorId green = colors.intern("green");

  const PrimId src = net.add_source("src", {red, blue});
  const PrimId sw = net.add_switch(
      "sw", 2, [red](ColorId c) { return c == red ? 0 : 1; });
  // red -> green on branch 0.
  const PrimId fn = net.add_function(
      "fn", [green](ColorId) { return green; });
  const PrimId mg = net.add_merge("mg", 2);
  const PrimId q = net.add_queue("q", 2);
  const PrimId sink = net.add_sink("sink");

  net.connect(src, 0, sw, 0);
  net.connect(sw, 0, fn, 0);
  const ChanId sw1 = net.connect(sw, 1, mg, 1);
  const ChanId fn_out = net.connect(fn, 0, mg, 0);
  const ChanId q_in = net.connect(mg, 0, q, 0);
  const ChanId q_out = net.connect(q, 0, sink, 0);

  ASSERT_FALSE(analysis::analyze(net).has_errors());
  const Typing typing = Typing::derive(net);
  EXPECT_EQ(typing.of(sw1), ColorSet{blue});
  EXPECT_EQ(typing.of(fn_out), ColorSet{green});
  EXPECT_EQ(typing.of(q_in), (ColorSet{blue, green}));
  EXPECT_EQ(typing.of(q_out), (ColorSet{blue, green}));
  EXPECT_EQ(typing.num_pairs(), 2u + 1u + 1u + 1u + 2u + 2u);
}

TEST(Typing, ForkAndJoin) {
  Network net;
  auto& colors = net.colors();
  const ColorId d = colors.intern("d");
  const ColorId t = colors.intern("t");
  const PrimId src = net.add_source("data", {d});
  const PrimId tok = net.add_source("tok", {t});
  const PrimId fork = net.add_fork("fork");
  const PrimId join = net.add_join("join");
  const PrimId s1 = net.add_sink("s1");
  const PrimId s2 = net.add_sink("s2");

  net.connect(src, 0, fork, 0);
  const ChanId fa = net.connect(fork, 0, join, 0);  // data side
  const ChanId fb = net.connect(fork, 1, s1, 0);
  const ChanId tj = net.connect(tok, 0, join, 1);   // token side
  const ChanId out = net.connect(join, 0, s2, 0);

  ASSERT_FALSE(analysis::analyze(net).has_errors());
  const Typing typing = Typing::derive(net);
  EXPECT_EQ(typing.of(fa), ColorSet{d});
  EXPECT_EQ(typing.of(fb), ColorSet{d});
  EXPECT_EQ(typing.of(tj), ColorSet{t});
  EXPECT_EQ(typing.of(out), ColorSet{d});  // join copies the data input
}

TEST(Typing, AutomatonEmissions) {
  Network net;
  auto& colors = net.colors();
  const ColorId ping = colors.intern("ping");
  const ColorId pong = colors.intern("pong");

  Automaton a;
  a.name = "echo";
  a.states = {"s"};
  a.num_in = 1;
  a.num_out = 1;
  AutTransition t;
  t.from = t.to = 0;
  t.guard = [ping](int, ColorId d) { return d == ping; };
  t.transform = [pong](int, ColorId) {
    return std::optional<Emission>({0, pong});
  };
  t.label = "echo";
  a.transitions.push_back(std::move(t));

  const PrimId prim = net.add_automaton(std::move(a));
  const PrimId src = net.add_source("src", {ping});
  const PrimId sink = net.add_sink("sink");
  net.connect(src, 0, prim, 0);
  const ChanId out = net.connect(prim, 0, sink, 0);

  const Typing typing = Typing::derive(net);
  EXPECT_EQ(typing.of(out), ColorSet{pong});
}

// The derivation is total over unwired ports: the analyzer rejects such a
// net, but deriving it directly must neither read nor write past the
// channel table (ASan's _GLIBCXX_ASSERTIONS build checks the indexing).
TEST(Typing, UnwiredPortsContributeNothing) {
  Network net;
  const ColorId d = net.colors().intern("d");
  net.add_source("dangling", {d});  // output unwired
  const PrimId src = net.add_source("src", {d});
  const PrimId mg = net.add_merge("mg", 2);  // in-port 1 unwired
  const PrimId fork = net.add_fork("fork");  // out-port 1 unwired
  const PrimId sink = net.add_sink("sink");
  net.connect(src, 0, mg, 0);
  const ChanId mid = net.connect(mg, 0, fork, 0);
  const ChanId out = net.connect(fork, 0, sink, 0);

  ASSERT_TRUE(analysis::analyze(net).has_errors());
  const Typing typing = Typing::derive(net);
  EXPECT_EQ(typing.num_channels(), 3u);
  EXPECT_EQ(typing.of(mid), ColorSet{d});
  EXPECT_EQ(typing.of(out), ColorSet{d});
  EXPECT_EQ(typing.num_pairs(), 3u);
  EXPECT_TRUE(typing.skipped().empty());
}

TEST(DotExport, ProducesWellFormedDigraph) {
  Network net;
  const ColorId tok = net.colors().intern("tok");
  const PrimId src = net.add_source("src", {tok});
  const PrimId q = net.add_queue("q", 2);
  const PrimId sink = net.add_sink("sink");
  net.connect(src, 0, q, 0);
  net.connect(q, 0, sink, 0);
  const Typing typing = Typing::derive(net);
  const std::string dot = to_dot(net, &typing);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("tok"), std::string::npos);
  EXPECT_EQ(dot.find("null"), std::string::npos);
}

}  // namespace
}  // namespace advocat::xmas
