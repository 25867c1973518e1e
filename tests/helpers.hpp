// Shared test fixtures: the paper's Fig. 1 running example, small
// utility builders and the certificate writer of the certification tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "automata/builder.hpp"
#include "smt/proof.hpp"
#include "smt/solver.hpp"
#include "xmas/network.hpp"

namespace advocat::testing {

/// Fig. 1 of the paper: automata S and T connected by queues q0 (requests)
/// and q1 (acknowledgments). Both automata act on fair local token sources
/// (S injects req on a token, T answers ack on a token).
struct RunningExample {
  xmas::Network net;
  xmas::ColorId req, ack, tok_s, tok_t;
  xmas::PrimId q0, q1, aut_s, aut_t;

  RunningExample(std::size_t q0_capacity = 2, std::size_t q1_capacity = 2) {
    auto& colors = net.colors();
    req = colors.intern("req");
    ack = colors.intern("ack");
    tok_s = colors.intern("tokS");
    tok_t = colors.intern("tokT");

    aut::AutomatonBuilder bs("S", {"s0", "s1"});
    bs.in_ports(2).out_ports(1).initial("s0");
    // port 0: network input (acks), port 1: token source.
    bs.on("s0", 1, tok_s).emit(0, req).go("s1").label("s0:req!");
    bs.on("s1", 0, ack).go("s0").label("s1:ack?");
    aut_s = net.add_automaton(bs.build());

    aut::AutomatonBuilder bt("T", {"t0", "t1"});
    bt.in_ports(2).out_ports(1).initial("t0");
    bt.on("t0", 0, req).go("t1").label("t0:req?");
    bt.on("t1", 1, tok_t).emit(0, ack).go("t0").label("t1:ack!");
    aut_t = net.add_automaton(bt.build());

    q0 = net.add_queue("q0", q0_capacity);
    q1 = net.add_queue("q1", q1_capacity);

    const xmas::PrimId src_s = net.add_source("srcS", {tok_s});
    const xmas::PrimId src_t = net.add_source("srcT", {tok_t});

    net.connect(aut_s, 0, q0, 0);   // S -> q0
    net.connect(q0, 0, aut_t, 0);   // q0 -> T
    net.connect(aut_t, 0, q1, 0);   // T -> q1
    net.connect(q1, 0, aut_s, 0);   // q1 -> S
    net.connect(src_s, 0, aut_s, 1);
    net.connect(src_t, 0, aut_t, 1);
  }
};

/// Pigeonhole principle PHP(p, h): p pigeons into h holes, one boolean
/// `<prefix>p<i>h<j>` per placement. Unsat for p > h and resolution-hard,
/// so it is a reliable generator of conflicts and learned clauses.
inline std::vector<smt::ExprId> pigeonhole(smt::ExprFactory& f, int pigeons,
                                           int holes,
                                           const std::string& prefix) {
  const auto at = [](int i) { return static_cast<std::size_t>(i); };
  std::vector<smt::ExprId> constraints;
  std::vector<std::vector<smt::ExprId>> in(
      at(pigeons), std::vector<smt::ExprId>(at(holes)));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[at(p)][at(h)] = f.bool_var(prefix + "p" + std::to_string(p) + "h" +
                                    std::to_string(h));
    }
  }
  for (int p = 0; p < pigeons; ++p) constraints.push_back(f.or_(in[at(p)]));
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        constraints.push_back(
            f.or_({f.not_(in[at(p1)][at(h)]), f.not_(in[at(p2)][at(h)])}));
      }
    }
  }
  return constraints;
}

/// When ADVOCAT_PROOF_DIR is set (the CI certification steps), writes
/// every certificate to `<dir>/<stem><n>.proof`, n counting from 1 per
/// stem, so the standalone advocat-check binary revalidates the same
/// refutations out of process. A certificate that cannot be written fails
/// the test.
inline void dump_certs(const std::vector<smt::Certificate>& certs,
                       const std::string& stem) {
  static const char* dir = std::getenv("ADVOCAT_PROOF_DIR");
  if (dir == nullptr) return;
  static std::map<std::string, smt::native::FileProofSink> sinks;
  smt::native::FileProofSink& sink =
      sinks.try_emplace(stem, std::string(dir) + "/" + stem).first->second;
  for (const smt::Certificate& cert : certs) sink.on_unsat_certificate(cert);
  EXPECT_EQ(sink.failed(), 0u) << "certificates lost under " << dir;
}

}  // namespace advocat::testing
