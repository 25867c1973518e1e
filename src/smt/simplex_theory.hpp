// Exact linear-arithmetic theory layer: bridges the native solver's active
// rows onto the incremental rational simplex (linalg/simplex.hpp).
//
// The bridge owns one persistent Simplex per search context. Tableau
// structure is permanent and deduplicated: translation numbers each
// distinct sign-canonical linear form (leading coefficient positive), and
// the bridge creates one slack variable per form id at the form's first
// assertion, so a ≤ atom and its negation — and re-activations of the same
// row across checks and probes — all land on the same slack.
//
// Bounds follow the caller's trail (Dutertre & de Moura, CAV 2006): the
// caller asserts each row as it becomes active (assert_row) and retracts
// them LIFO on backjump (mark/retract_to), so check() always pivots from
// the previous vertex over exactly the active rows. Branch cuts are
// asserted on top for the duration of one check_integer() and retracted
// before it returns.
//
// Verdicts are exact or honest: `Infeasible` comes with a Farkas
// explanation mapped back to row tags (the SMT layer learns it as a
// theory clause) and, while hints are on, with its exact multipliers (the
// clause's proof); `IntegerModel` is a full integer assignment for every
// requested variable; `Feasible` means rationally feasible but
// integer-openness remains (rational-only mode, or the branch budget ran
// out) — the caller keeps its Unknown degradation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/simplex.hpp"
#include "smt/theory.hpp"

namespace advocat::smt {

class SimplexTheory {
 public:
  enum class Verdict {
    Feasible,      ///< rationally feasible; integers not decided
    Infeasible,    ///< exact refutation; conflict_rows set
    IntegerModel,  ///< integer witness; model set
  };

  struct Result {
    Verdict verdict = Verdict::Feasible;
    /// Infeasible: tags of the asserted rows the refutation used.
    std::vector<int> conflict_rows;
    /// Infeasible by one Farkas combination (no integer branching), while
    /// hints are on: the exact multiplier of each conflict_rows entry.
    std::vector<linalg::Rational> multipliers;
    /// IntegerModel: value per requested integer variable.
    std::vector<theory::Pin> model;
  };

  /// Asserts `row` (Σ terms ≤ bound, at least one term) with tag `tag` ≥ 0
  /// on top of the bounds already asserted. `form` ≥ 0 is the id of the
  /// row's sign-canonical linear form: rows with one id must have the same
  /// terms up to sign. False when it crosses an asserted bound on the same
  /// form; crossing() then names the refuting tags.
  bool assert_row(const theory::Row& row, int form, int tag);
  /// Tags of the last refutation assert_row reported; each row's Farkas
  /// multiplier is 1.
  [[nodiscard]] const std::vector<int>& crossing() const { return crossing_; }

  /// Whether Result::multipliers is filled (while a proof log is attached).
  void set_hints(bool on) { hints_ = on; }

  /// Bound-trail mark for retract_to(); LIFO, like the caller's trail.
  [[nodiscard]] std::size_t mark() const { return spx_.mark(); }
  void retract_to(std::size_t mark) { spx_.retract_to(mark); }

  /// Decides the asserted rows over the rationals, starting from the
  /// persistent basis.
  Result check();
  /// Decides the asserted rows over the integers: a rationally feasible
  /// system is completed by branch-on-rational-vertex cuts on `int_vars`
  /// under a node budget.
  Result check_integer(const std::vector<int>& int_vars);

  /// Cumulative counters, session-lifetime (mirrors SolveStats).
  [[nodiscard]] std::uint64_t pivots() const { return spx_.stats().pivots; }
  [[nodiscard]] std::uint64_t explanations() const { return explanations_; }

  /// Deadline poll forwarded to every pivot (may throw; see Simplex).
  void set_tick(std::function<void()> tick) { spx_.set_tick(std::move(tick)); }

  /// Inline tableau pool bytes (memory-ceiling input; see Simplex).
  [[nodiscard]] std::size_t pool_bytes() const { return spx_.pool_bytes(); }

  /// Deep self-audit: every form's slack is a tableau variable and no two
  /// forms share one, plus the underlying tableau's own audit.
  /// Returns "" when every invariant holds, else a description of the
  /// first violation (see smt/audit.hpp).
  [[nodiscard]] std::string audit() const;

 private:
  // Shared body of check()/check_integer(): integer completion when
  // `int_vars` is non-null; every cut it asserts is retracted before it
  // returns.
  Result decide(const std::vector<int>* int_vars);
  // Branch-on-rational-vertex integer completion; appends used non-branch
  // tags to `used`. Returns the verdict for the current bound state.
  Verdict branch(const std::vector<int>& int_vars, std::vector<int>& used,
                 Result& out);
  void collect_farkas_tags(std::vector<int>& used) const;

  linalg::Simplex spx_;
  std::vector<int> slack_;  // form id -> its slack var, -1 until asserted
  std::vector<int> crossing_;
  std::uint64_t explanations_ = 0;
  std::uint64_t branch_budget_ = 0;  // per-check node budget (see .cpp)
  bool hints_ = false;
};

}  // namespace advocat::smt
