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

#include <optional>
#include <string>
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
  /// A queue's block right-hand side: the same for every color.
  smt::ExprId queue_block_rhs(xmas::PrimId q);

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

  /// Dense index of the typed pair (c, d), d ∈ T(c): the key of every
  /// per-(channel, color) table. Throws std::logic_error for an untyped
  /// pair, which no well-formed network's equations reach.
  [[nodiscard]] std::size_t pair(ChanId c, ColorId d) const;
  /// Runs every automaton's guards and transforms once: records each
  /// transition's firings and marks, per typed pair, the in-pairs some
  /// guard accepts and the out-pairs some firing emits.
  void derive_firings();
  const std::string& chan_name(ChanId c);

  const xmas::Network& net_;
  const xmas::Typing& typing_;
  smt::ExprFactory& f_;
  EncoderOptions options_;

  // Memoized ids, kNoExpr until created. Block, idle and dead definitions
  // are appended to defs_ on first creation; the id is stored before the
  // right-hand side is built, so a cycle back to it finds the variable.
  std::vector<std::size_t> pair_base_;       // per channel, then the total
  std::vector<smt::ExprId> block_vars_;      // per pair
  std::vector<smt::ExprId> idle_vars_;       // per pair
  std::vector<smt::ExprId> occ_vars_;        // per pair of the queue's in-channel
  std::vector<smt::ExprId> idle_all_;        // per channel
  std::vector<smt::ExprId> queue_block_;     // per primitive (queues only)
  std::vector<std::size_t> state_base_;      // per automaton
  std::vector<smt::ExprId> state_vars_;      // per (automaton, state)
  std::vector<smt::ExprId> dead_vars_;       // per automaton
  /// One (in-channel, color) a transition's guard accepts, and φ of it.
  struct Firing {
    ChanId in;
    ColorId d;
    std::optional<xmas::Emission> em;
  };
  std::vector<Firing> firings_;              // by transition, then (in-port, color)
  std::vector<std::size_t> firing_begin_;    // per transition of every automaton, then the total
  std::vector<std::size_t> transition_base_; // per automaton: its first transition
  std::vector<char> accepted_;               // per pair
  std::vector<char> produced_;               // per pair
  std::vector<std::string> chan_names_;      // per channel, built on first use
  std::vector<smt::ExprId> defs_;
  bool encoded_ = false;
};

}  // namespace advocat::deadlock
