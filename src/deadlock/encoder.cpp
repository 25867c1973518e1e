#include "deadlock/encoder.hpp"

#include <algorithm>
#include <stdexcept>

#include "deadlock/varnames.hpp"

namespace advocat::deadlock {

using xmas::ChanId;
using xmas::ColorId;
using xmas::ColorSet;
using xmas::PrimId;
using xmas::PrimKind;
using xmas::Primitive;

Encoder::Encoder(const xmas::Network& net, const xmas::Typing& typing,
                 smt::ExprFactory& factory, EncoderOptions options)
    : net_(net), typing_(typing), f_(factory), options_(options) {
  pair_base_.reserve(net_.num_channels() + 1);
  std::size_t pairs = 0;
  for (std::size_t c = 0; c < net_.num_channels(); ++c) {
    pair_base_.push_back(pairs);
    pairs += typing_.of(static_cast<ChanId>(c)).size();
  }
  pair_base_.push_back(pairs);
  block_vars_.assign(pairs, smt::kNoExpr);
  idle_vars_.assign(pairs, smt::kNoExpr);
  occ_vars_.assign(pairs, smt::kNoExpr);
  idle_all_.assign(net_.num_channels(), smt::kNoExpr);
  queue_block_.assign(net_.num_prims(), smt::kNoExpr);
  chan_names_.resize(net_.num_channels());
  std::size_t states = 0;
  for (const xmas::Automaton& a : net_.automata()) {
    state_base_.push_back(states);
    states += static_cast<std::size_t>(a.num_states());
  }
  state_vars_.assign(states, smt::kNoExpr);
  dead_vars_.assign(net_.automata().size(), smt::kNoExpr);
  derive_firings();
}

std::size_t Encoder::pair(ChanId c, ColorId d) const {
  const ColorSet& set = typing_.of(c);
  const auto it = std::lower_bound(set.begin(), set.end(), d);
  if (it == set.end() || *it != d) {
    throw std::logic_error("Encoder: color " + net_.colors().name(d) +
                           " is not in the typing of " + net_.channel_name(c));
  }
  return pair_base_[static_cast<std::size_t>(c)] +
         static_cast<std::size_t>(it - set.begin());
}

void Encoder::derive_firings() {
  accepted_.assign(block_vars_.size(), 0);
  produced_.assign(block_vars_.size(), 0);
  for (std::size_t ai = 0; ai < net_.automata().size(); ++ai) {
    const xmas::Automaton& a = net_.automata()[ai];
    const Primitive& p = net_.prim(net_.automaton_prim(static_cast<int>(ai)));
    transition_base_.push_back(firing_begin_.size());
    for (const auto& t : a.transitions) {
      firing_begin_.push_back(firings_.size());
      for (int i = 0; i < a.num_in; ++i) {
        const ChanId in = p.in[static_cast<std::size_t>(i)];
        if (in == xmas::kNoChan) continue;
        for (ColorId d : typing_.of(in)) {
          if (!t.guard(i, d)) continue;
          accepted_[pair(in, d)] = 1;
          const Firing& fire = firings_.emplace_back(Firing{in, d, t.transform(i, d)});
          const auto& em = fire.em;
          if (!em.has_value() || em->first < 0 ||
              static_cast<std::size_t>(em->first) >= p.out.size()) {
            continue;
          }
          const ChanId out = p.out[static_cast<std::size_t>(em->first)];
          if (out != xmas::kNoChan && xmas::set_contains(typing_.of(out), em->second)) {
            produced_[pair(out, em->second)] = 1;
          }
        }
      }
    }
  }
  firing_begin_.push_back(firings_.size());
}

const std::string& Encoder::chan_name(ChanId c) {
  std::string& name = chan_names_[static_cast<std::size_t>(c)];
  if (name.empty()) name = net_.channel_name(c);
  return name;
}

smt::ExprId Encoder::capacity_expr(PrimId queue) {
  if (options_.symbolic_capacities) {
    return f_.int_var(cap_var_name(net_, queue));
  }
  return f_.int_const(
      static_cast<std::int64_t>(net_.prim(queue).capacity));
}

smt::ExprId Encoder::occ(PrimId queue, ColorId d) {
  smt::ExprId& var = occ_vars_[pair(net_.prim(queue).in[0], d)];
  if (var == smt::kNoExpr) var = f_.int_var(occ_var_name(net_, queue, d));
  return var;
}

smt::ExprId Encoder::nonneg(smt::ExprId v) {
  return f_.ge(v, f_.int_const(0));
}

smt::ExprId Encoder::state(int automaton_index, int s) {
  const std::size_t base = state_base_.at(static_cast<std::size_t>(automaton_index));
  smt::ExprId& var = state_vars_[base + static_cast<std::size_t>(s)];
  if (var == smt::kNoExpr) var = f_.int_var(state_var_name(net_, automaton_index, s));
  return var;
}

smt::ExprId Encoder::block(ChanId c, ColorId d) {
  const std::size_t k = pair(c, d);
  if (block_vars_[k] != smt::kNoExpr) return block_vars_[k];
  const smt::ExprId var = f_.bool_var(
      bracket_name("Blk[", {chan_name(c), ":", net_.colors().name(d)}));
  block_vars_[k] = var;  // before recursing (cycles)
  defs_.push_back(f_.iff(var, block_rhs(c, d)));
  return var;
}

smt::ExprId Encoder::idle(ChanId c, ColorId d) {
  const std::size_t k = pair(c, d);
  if (idle_vars_[k] != smt::kNoExpr) return idle_vars_[k];
  const smt::ExprId var = f_.bool_var(
      bracket_name("Idl[", {chan_name(c), ":", net_.colors().name(d)}));
  idle_vars_[k] = var;
  defs_.push_back(f_.iff(var, idle_rhs(c, d)));
  return var;
}

smt::ExprId Encoder::dead(int automaton_index) {
  const auto ai = static_cast<std::size_t>(automaton_index);
  if (dead_vars_.at(ai) != smt::kNoExpr) return dead_vars_[ai];
  const smt::ExprId var =
      f_.bool_var(bracket_name("Dead[", {net_.automata()[ai].name}));
  dead_vars_[ai] = var;
  defs_.push_back(f_.iff(var, dead_rhs(automaton_index)));
  return var;
}

smt::ExprId Encoder::idle_all(ChanId c) {
  const auto ci = static_cast<std::size_t>(c);
  if (idle_all_.at(ci) != smt::kNoExpr) return idle_all_[ci];
  std::vector<smt::ExprId> parts;
  for (ColorId d : typing_.of(c)) parts.push_back(idle(c, d));
  const smt::ExprId all = f_.and_(parts);
  idle_all_[ci] = all;
  return all;
}

smt::ExprId Encoder::block_of_emission(
    const Primitive& prim, const std::optional<xmas::Emission>& em) {
  if (!em.has_value()) return f_.bool_const(false);  // block(⊥) = False
  const auto [port, color] = *em;
  return block(prim.out.at(static_cast<std::size_t>(port)), color);
}

smt::ExprId Encoder::queue_block_rhs(PrimId q) {
  const auto qi = static_cast<std::size_t>(q);
  if (queue_block_[qi] != smt::kNoExpr) return queue_block_[qi];
  const Primitive& p = net_.prim(q);
  const ColorSet& stored = typing_.of(p.in[0]);
  // full: Σ_d' #q.d' = capacity
  std::vector<smt::ExprId> occs;
  for (ColorId d2 : stored) occs.push_back(occ(q, d2));
  const smt::ExprId full = f_.eq(f_.add(occs), capacity_expr(q));
  const ColorSet& out_colors = typing_.of(p.out[0]);
  smt::ExprId rhs = smt::kNoExpr;
  if (p.fifo) {
    // FIFO: blocked iff full and some stored packet (potentially at the
    // head) is permanently stuck.
    std::vector<smt::ExprId> some_stuck;
    for (ColorId d2 : out_colors) {
      some_stuck.push_back(f_.and_(
          {f_.ge(occ(q, d2), f_.int_const(1)), block(p.out[0], d2)}));
    }
    rhs = f_.and_({full, f_.or_(some_stuck)});
  } else {
    // Bag ("stall & requeue"): blocked iff full and *every* stored packet
    // is permanently stuck (any consumable packet eventually frees space).
    std::vector<smt::ExprId> all_stuck;
    for (ColorId d2 : out_colors) {
      all_stuck.push_back(f_.or_(
          {f_.eq(occ(q, d2), f_.int_const(0)), block(p.out[0], d2)}));
    }
    rhs = f_.and_({full, f_.and_(all_stuck)});
  }
  queue_block_[qi] = rhs;
  return rhs;
}

smt::ExprId Encoder::block_rhs(ChanId c, ColorId d) {
  const xmas::Channel& ch = net_.channel(c);
  const Primitive& p = net_.prim(ch.target);
  const int port = ch.tgt_port;
  switch (p.kind) {
    case PrimKind::Queue:
      return queue_block_rhs(ch.target);
    case PrimKind::Sink:
      return f_.bool_const(!p.fair);  // fair sink never blocks; dead always
    case PrimKind::Function:
      return block(p.out[0], p.func(d));
    case PrimKind::Fork:
      // Both outputs must be ready; blocked if either is blocked.
      return f_.or_({block(p.out[0], d), block(p.out[1], d)});
    case PrimKind::Join: {
      const ChanId data_in = p.in[0];
      const ChanId token_in = p.in[1];
      if (port == 0) {
        // Data side: output stuck, or the token never arrives.
        return f_.or_({block(p.out[0], d), idle_all(token_in)});
      }
      // Token side: stuck iff for every data color, it never arrives or the
      // output is blocked for it.
      std::vector<smt::ExprId> parts;
      for (ColorId d2 : typing_.of(data_in)) {
        parts.push_back(f_.or_({idle(data_in, d2), block(p.out[0], d2)}));
      }
      return f_.and_(parts);
    }
    case PrimKind::Switch: {
      const int out_port = p.route(d);
      if (out_port < 0 || static_cast<std::size_t>(out_port) >= p.out.size())
        return f_.bool_const(true);  // unroutable colors are never accepted
      return block(p.out[static_cast<std::size_t>(out_port)], d);
    }
    case PrimKind::Merge:
      // Fair arbitration: an input is permanently refused only if the
      // output is permanently blocked.
      return block(p.out[0], d);
    case PrimKind::Automaton:
      // Paper: block(i,d) = (∀t. ¬ε(i,d)) ∨ dead_A.
      if (accepted_[pair(c, d)] == 0) return f_.bool_const(true);
      return dead(p.automaton);
    case PrimKind::Source:
      break;  // sources have no in-ports
  }
  throw std::logic_error("block_rhs: bad target primitive");
}

smt::ExprId Encoder::idle_rhs(ChanId c, ColorId d) {
  const xmas::Channel& ch = net_.channel(c);
  const Primitive& p = net_.prim(ch.initiator);
  const int port = ch.init_port;
  switch (p.kind) {
    case PrimKind::Source:
      // Fair sources always eventually offer each of their colors.
      return f_.bool_const(!(p.fair && xmas::set_contains(p.source_colors, d)));
    case PrimKind::Queue: {
      // d never leaves the queue iff it is not stored and it can stop
      // *entering* forever — either the initiator stops offering it (idle)
      // or the queue input is permanently refused (blocked) while d waits
      // upstream. Omitting the blocked disjunct makes the encoding miss
      // real deadlocks where a packet is wedged behind a saturated queue.
      const PrimId q = ch.initiator;
      return f_.and_({f_.eq(occ(q, d), f_.int_const(0)),
                      f_.or_({idle(p.in[0], d), block(p.in[0], d)})});
    }
    case PrimKind::Function: {
      // Idle iff every preimage is idle (no preimage -> never produced).
      std::vector<smt::ExprId> parts;
      for (ColorId d0 : typing_.of(p.in[0])) {
        if (p.func(d0) == d) parts.push_back(idle(p.in[0], d0));
      }
      return f_.and_(parts);
    }
    case PrimKind::Fork: {
      // This output sees d iff the input offers it and the *other* output
      // can accept it (fork transfers are simultaneous).
      const ChanId other = p.out[port == 0 ? 1 : 0];
      return f_.or_({idle(p.in[0], d), block(other, d)});
    }
    case PrimKind::Join:
      // Output data comes from in-port 0; needs the token too.
      return f_.or_({idle(p.in[0], d), idle_all(p.in[1])});
    case PrimKind::Switch: {
      if (p.route(d) != port) return f_.bool_const(true);
      return idle(p.in[0], d);
    }
    case PrimKind::Merge: {
      std::vector<smt::ExprId> parts;
      for (ChanId in : p.in) {
        if (xmas::set_contains(typing_.of(in), d)) parts.push_back(idle(in, d));
      }
      return f_.and_(parts);
    }
    case PrimKind::Automaton:
      // Paper: idle(o,d') = (∀t,i,d. ε(i,d) -> φ(i,d) ≠ (o,d')) ∨ dead_A.
      if (produced_[pair(c, d)] == 0) return f_.bool_const(true);
      return dead(p.automaton);
    case PrimKind::Sink:
      break;  // sinks have no out-ports
  }
  throw std::logic_error("idle_rhs: bad initiator primitive");
}

smt::ExprId Encoder::dead_rhs(int automaton_index) {
  const xmas::Automaton& a =
      net_.automata().at(static_cast<std::size_t>(automaton_index));
  const Primitive& p = net_.prim(net_.automaton_prim(automaton_index));
  const std::size_t base =
      transition_base_[static_cast<std::size_t>(automaton_index)];
  std::vector<smt::ExprId> per_state;
  for (int s = 0; s < a.num_states(); ++s) {
    std::vector<smt::ExprId> all_transitions_dead;
    for (std::size_t ti = 0; ti < a.transitions.size(); ++ti) {
      if (a.transitions[ti].from != s) continue;
      // A transition is dead iff every packet that could trigger it either
      // never arrives (idle) or cannot be forwarded (block of φ).
      std::vector<smt::ExprId> parts;
      for (std::size_t k = firing_begin_[base + ti];
           k < firing_begin_[base + ti + 1]; ++k) {
        const Firing& fire = firings_[k];
        parts.push_back(
            f_.or_({block_of_emission(p, fire.em), idle(fire.in, fire.d)}));
      }
      all_transitions_dead.push_back(f_.and_(parts));
    }
    per_state.push_back(
        f_.and_({f_.eq(state(automaton_index, s), f_.int_const(1)),
                 f_.and_(all_transitions_dead)}));
  }
  return f_.or_(per_state);
}

Encoding Encoder::encode() {
  if (encoded_) throw std::logic_error("Encoder::encode called twice");
  encoded_ = true;
  Encoding enc;

  // Structural constraints for every queue and automaton — each emitted
  // in the canonical theory-row shape (variables left, constant right),
  // so the solver's interval and simplex layers consume them directly.
  for (PrimId qid : net_.prims_of_kind(PrimKind::Queue)) {
    const Primitive& q = net_.prim(qid);
    const smt::ExprId cap = capacity_expr(qid);
    if (options_.symbolic_capacities) {
      enc.capacity_vars.emplace_back(qid, cap);
      enc.structural.push_back(nonneg(cap));
    }
    const ColorSet& stored = typing_.of(q.in[0]);
    std::vector<smt::ExprId> occs;
    for (ColorId d : stored) {
      const smt::ExprId v = occ(qid, d);
      enc.structural.push_back(nonneg(v));
      occs.push_back(v);
    }
    if (!occs.empty()) {
      enc.structural.push_back(f_.le(f_.add(occs), cap));
    }
  }
  for (std::size_t ai = 0; ai < net_.automata().size(); ++ai) {
    const xmas::Automaton& a = net_.automata()[ai];
    std::vector<smt::ExprId> states;
    for (int s = 0; s < a.num_states(); ++s) {
      const smt::ExprId v = state(static_cast<int>(ai), s);
      enc.structural.push_back(nonneg(v));
      enc.structural.push_back(f_.le(v, f_.int_const(1)));
      states.push_back(v);
    }
    enc.structural.push_back(f_.eq(f_.add(states), f_.int_const(1)));
  }

  // Deadlock disjuncts.
  std::vector<smt::ExprId> disjuncts;
  for (PrimId sid : net_.prims_of_kind(PrimKind::Source)) {
    const Primitive& s = net_.prim(sid);
    if (!s.fair) continue;
    std::vector<smt::ExprId> parts;
    for (ColorId d : s.source_colors) parts.push_back(block(s.out[0], d));
    const smt::ExprId e = f_.or_(parts);
    enc.disjuncts.emplace_back("source_blocked:" + s.name, e);
    disjuncts.push_back(e);
  }
  for (PrimId qid : net_.prims_of_kind(PrimKind::Queue)) {
    const Primitive& q = net_.prim(qid);
    std::vector<smt::ExprId> parts;
    for (ColorId d : typing_.of(q.out[0])) {
      parts.push_back(
          f_.and_({f_.ge(occ(qid, d), f_.int_const(1)), block(q.out[0], d)}));
    }
    const smt::ExprId e = f_.or_(parts);
    enc.disjuncts.emplace_back("packet_stuck:" + q.name, e);
    disjuncts.push_back(e);
  }
  for (std::size_t ai = 0; ai < net_.automata().size(); ++ai) {
    const smt::ExprId e = dead(static_cast<int>(ai));
    enc.disjuncts.emplace_back("dead:" + net_.automata()[ai].name, e);
    disjuncts.push_back(e);
  }
  enc.deadlock = f_.or_(disjuncts);
  enc.definitions = defs_;
  return enc;
}

}  // namespace advocat::deadlock
