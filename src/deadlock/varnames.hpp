// Shared variable-naming convention for state variables.
//
// The deadlock encoder (src/deadlock) and the invariant generator
// (src/invariants) must agree on SMT variable names so that invariants can
// be asserted into the deadlock query:
//   occupancy  #q.d     ->  "N[<queue>.<color>]"      (Int, >= 0)
//   automaton  A.s      ->  "S[<automaton>.<state>]"  (Int, 0/1)
//   capacity   cap(q)   ->  "C[<queue>]"              (Int, >= 0; only under
//                            symbolic-capacity encodings, bound per check by
//                            solver assumptions)
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

#include "xmas/network.hpp"

namespace advocat {

/// `prefix` + each part + "]", in one allocation.
[[nodiscard]] inline std::string bracket_name(
    std::string_view prefix, std::initializer_list<std::string_view> parts) {
  std::size_t size = prefix.size() + 1;
  for (std::string_view p : parts) size += p.size();
  std::string out;
  out.reserve(size);
  out += prefix;
  for (std::string_view p : parts) out += p;
  out += ']';
  return out;
}

[[nodiscard]] inline std::string occ_var_name(const xmas::Network& net,
                                              xmas::PrimId queue,
                                              xmas::ColorId color) {
  return bracket_name("N[", {net.prim(queue).name, ".", net.colors().name(color)});
}

[[nodiscard]] inline std::string cap_var_name(const xmas::Network& net,
                                              xmas::PrimId queue) {
  return bracket_name("C[", {net.prim(queue).name});
}

[[nodiscard]] inline std::string state_var_name(const xmas::Network& net,
                                                int automaton_index,
                                                int state) {
  const xmas::Automaton& a =
      net.automata().at(static_cast<std::size_t>(automaton_index));
  return bracket_name("S[", {a.name, ".", a.states.at(static_cast<std::size_t>(state))});
}

}  // namespace advocat
