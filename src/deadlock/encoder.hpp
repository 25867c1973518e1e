// Deadlock detection via block/idle equations (Section 3 of the paper,
// after Gotmanov, Chatterjee & Kishinevsky, VMCAI'11).
//
// A channel is permanently *blocked* for color d when its trdy can stay low
// forever while the initiator wants to transfer d; it is permanently *idle*
// for d when d can stop arriving forever. Both relations are given
// definitional equations per primitive kind; an automaton is *dead* when it
// sits in a state whose outgoing transitions are all permanently disabled.
//
// The encoder instantiates boolean variables Blk[c:d], Idl[c:d], Dead[A]
// lazily (only the cone of the deadlock condition), asserts their
// definitions as <->, and produces the deadlock condition
//     (some fair source permanently refused)
//  \/ (some queue holds a packet that can never leave)
//  \/ (some automaton dead).
// SAT models are deadlock *candidates* (the encoding over-approximates
// reachability); conjoining flow invariants (src/invariants) prunes
// unreachable candidates, and UNSAT proves deadlock freedom.
//
// Structural precondition (standard for block/idle reasoning): two fork
// outputs must not reconverge combinationally at one merge or join-input
// pair — such a fork can never transfer (the merge grants one input per
// cycle while the fork needs both accepted simultaneously), which the
// equations do not model. Buffer fork branches with queues, as real
// designs do.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "smt/expr.hpp"
#include "xmas/network.hpp"
#include "xmas/typing.hpp"

namespace advocat::deadlock {

struct EncoderOptions {
  /// Encode each queue's capacity as a fresh integer variable (see
  /// cap_var_name in varnames.hpp) instead of baking in the
  /// Primitive::capacity constant. The encoding then contains no capacity
  /// constants at all; a session binds the variables per check via solver
  /// assumptions `C[q] = k` (Encoding::capacity_vars), which is what makes
  /// capacity probing a sequence of assumption flips instead of a
  /// re-encode.
  bool symbolic_capacities = false;
};

struct Encoding {
  /// Domain constraints: occupancy bounds, Σ_d #q.d <= capacity,
  /// Σ_s A.s = 1 with 0 <= A.s <= 1.
  std::vector<smt::ExprId> structural;
  /// Definitional equivalences for every instantiated Blk/Idl/Dead variable.
  std::vector<smt::ExprId> definitions;
  /// The deadlock candidate condition (assert this and check SAT).
  smt::ExprId deadlock = smt::kNoExpr;
  /// Tagged disjuncts of `deadlock` for witness reporting.
  std::vector<std::pair<std::string, smt::ExprId>> disjuncts;
  /// (queue, capacity variable) per queue, in network order; populated only
  /// under EncoderOptions::symbolic_capacities. The encoding leaves these
  /// variables unbounded above — every check must assume a binding for each
  /// or the query is vacuously Sat.
  std::vector<std::pair<xmas::PrimId, smt::ExprId>> capacity_vars;

  [[nodiscard]] std::vector<smt::ExprId> all_assertions() const {
    std::vector<smt::ExprId> out = structural;
    out.insert(out.end(), definitions.begin(), definitions.end());
    out.push_back(deadlock);
    return out;
  }
};

class Encoder {
 public:
  Encoder(const xmas::Network& net, const xmas::Typing& typing,
          smt::ExprFactory& factory, EncoderOptions options = {});

  /// Builds the full encoding. Idempotent per instance.
  Encoding encode();

  // Exposed for tests and witness decoding.
  [[nodiscard]] smt::ExprId occ(xmas::PrimId queue, xmas::ColorId d);
  [[nodiscard]] smt::ExprId state(int automaton_index, int state);

 private:
  using ChanId = xmas::ChanId;
  using ColorId = xmas::ColorId;

  smt::ExprId block(ChanId c, ColorId d);
  smt::ExprId idle(ChanId c, ColorId d);
  smt::ExprId dead(int automaton_index);
  /// AND over all colors of c: idle(c, d)  ("no packet ever arrives").
  smt::ExprId idle_all(ChanId c);

  smt::ExprId block_rhs(ChanId c, ColorId d);
  smt::ExprId idle_rhs(ChanId c, ColorId d);
  smt::ExprId dead_rhs(int automaton_index);

  /// The queue's capacity as an expression: the symbolic variable under
  /// EncoderOptions::symbolic_capacities, the baked-in constant otherwise.
  smt::ExprId capacity_expr(xmas::PrimId queue);

  /// `0 ≤ v` in the canonical single-variable theory-row shape (see
  /// smt/rows.hpp): every structural constraint the encoder emits is a
  /// row the solver's theory layers consume directly.
  smt::ExprId nonneg(smt::ExprId v);

  /// Block of a transformation result: block(o, d') or false for ⊥.
  smt::ExprId block_of_emission(const xmas::Primitive& prim,
                                const std::optional<xmas::Emission>& em);

  const xmas::Network& net_;
  const xmas::Typing& typing_;
  smt::ExprFactory& f_;
  EncoderOptions options_;

  // Memoization keyed by (channel|queue|automaton, color|state). Block, idle
  // and dead definitions are appended to defs_ on first creation; a key
  // present in the map with a pending definition is fine because the
  // variable already exists.
  std::unordered_map<std::uint64_t, smt::ExprId> block_vars_;
  std::unordered_map<std::uint64_t, smt::ExprId> idle_vars_;
  std::unordered_map<std::uint64_t, smt::ExprId> occ_vars_;
  std::unordered_map<std::uint64_t, smt::ExprId> state_vars_;
  std::unordered_map<int, smt::ExprId> dead_vars_;
  std::vector<smt::ExprId> defs_;
  bool encoded_ = false;
};

}  // namespace advocat::deadlock
