// SMT-LIB2 serialization of assertions and of incremental solver sessions
// (solver-independent escape hatch).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "smt/expr.hpp"
#include "smt/solver.hpp"

namespace advocat::smt {

/// Emits declarations for every variable in `factory`, one (assert ...) per
/// element of `assertions`, and a final (check-sat).
[[nodiscard]] std::string to_smtlib(const ExprFactory& factory,
                                    const std::vector<ExprId>& assertions);

/// One recorded session command.
struct Command {
  enum class Kind { Assert, CheckSat };
  Kind kind = Kind::Assert;
  ExprId expr = kNoExpr;           ///< Assert only
  std::vector<ExprId> assumptions; ///< CheckSat only (may be empty)
};

/// Recorded incremental session: the sequence of assert/check-sat commands
/// issued against a Solver, replayable onto any backend and serializable as
/// an SMT-LIB2 script.
class Script {
 public:
  void add(ExprId assertion);
  void check_sat(std::vector<ExprId> assumptions = {});

  [[nodiscard]] const std::vector<Command>& commands() const {
    return commands_;
  }
  [[nodiscard]] std::size_t num_checks() const { return num_checks_; }

  /// Serializes the session: (set-logic), declarations for every variable
  /// in `factory`, then the commands in order. A check-sat with
  /// assumptions is emitted as the equivalent
  ///   (push 1) (assert a)... (check-sat) (pop 1)
  /// bracket, since the encoders' assumptions (e.g. capacity bindings
  /// `(= C[q] k)`) are arbitrary formulas, not the bare literals SMT-LIB's
  /// check-sat-assuming requires.
  [[nodiscard]] std::string to_smtlib(const ExprFactory& factory) const;

  /// Replays the session onto a live solver; returns one verdict per
  /// recorded check-sat. The solver must be over the same factory the
  /// recorded ExprIds came from.
  std::vector<SatResult> replay(Solver& solver, unsigned timeout_ms = 0) const;

 private:
  std::vector<Command> commands_;
  std::size_t num_checks_ = 0;
};

/// Wraps `inner` so every add/check is mirrored into `script`
/// (which must outlive the returned solver). Verdicts, models, and solve
/// statistics pass through unchanged.
std::unique_ptr<Solver> make_recording_solver(std::unique_ptr<Solver> inner,
                                              Script& script);

}  // namespace advocat::smt
