// Per-channel color derivation — the paper's "T-derivation".
//
// T(c) over-approximates the set of colors that can ever appear on channel
// c. It is the least fixpoint of the forward propagation rules:
//   source.out  ⊇ declared colors
//   queue.out   ⊇ T(queue.in)
//   function.out⊇ f(T(in))
//   fork.a/b    ⊇ T(in)
//   join.out    ⊇ T(data-in)        (token input contributes no data)
//   switch.out_k⊇ {d ∈ T(in) | route(d) = k}
//   merge.out   ⊇ ∪_j T(in_j)
//   automaton out-port o ⊇ {d' | ∃ transition t, in-port i, d ∈ T(in_i):
//                                ε_t(i,d) ∧ φ_t(i,d) = (o,d')}
//
// The derivation is total over the std::function-valued parameters: a
// source color, function image or emitted color outside the color table,
// and a switch route or emission port outside the primitive's out-ports,
// is left out of every set and recorded as a Skip. The analyzer reports
// each skip as a type-consistency error (docs/ANALYSIS.md).
#pragma once

#include <compare>
#include <string>
#include <vector>

#include "xmas/network.hpp"

namespace advocat::xmas {

class Typing {
 public:
  /// A parameter result the derivation left out of the color sets.
  struct Skip {
    PrimId prim = -1;
    std::string message;  ///< e.g. "route(req) = 7 outside the out-ports [0, 2)"
    auto operator<=>(const Skip&) const = default;
  };

  /// Runs the fixpoint; O(iterations × channels × colors). Total over
  /// unwired ports: an unwired in-port contributes no colors, and colors
  /// bound for an unwired out-port are dropped.
  static Typing derive(const Network& net);

  [[nodiscard]] const ColorSet& of(ChanId c) const { return sets_.at(static_cast<std::size_t>(c)); }
  [[nodiscard]] std::size_t num_channels() const { return sets_.size(); }

  /// Total number of (channel, color) pairs — the analyses' variable budget.
  [[nodiscard]] std::size_t num_pairs() const;

  /// The out-of-range results, each once, by primitive then message.
  [[nodiscard]] const std::vector<Skip>& skipped() const { return skipped_; }

 private:
  std::vector<ColorSet> sets_;
  std::vector<Skip> skipped_;
};

}  // namespace advocat::xmas
