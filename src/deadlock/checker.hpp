// The verdict report of one block/idle deadlock query and the decoder that
// fills its witness fields from a Sat model. core::Verifier runs the query.
#pragma once

#include <string>
#include <vector>

#include "deadlock/encoder.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"
#include "xmas/network.hpp"
#include "xmas/typing.hpp"

namespace advocat::deadlock {

struct Report {
  smt::SatResult result = smt::SatResult::Unknown;
  /// Human-readable verdict: result == Unsat means deadlock-free.
  [[nodiscard]] bool deadlock_free() const {
    return result == smt::SatResult::Unsat;
  }

  /// Disjunct tags that evaluate true in the model (Sat only).
  std::vector<std::string> fired;
  /// "queue: k x color" occupancy lines of the candidate (Sat only).
  std::vector<std::string> queue_contents;
  /// "automaton: state" lines of the candidate (Sat only).
  std::vector<std::string> automaton_states;

  std::size_t num_definitions = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Decodes a Sat model into the witness fields of `report` (fired
/// disjuncts, queue contents, automaton states).
void decode_witness(const xmas::Network& net, const xmas::Typing& typing,
                    const smt::ExprFactory& factory, const Encoding& enc,
                    const smt::Model& model, Report& report);

}  // namespace advocat::deadlock
