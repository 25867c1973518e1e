// Exact linear-arithmetic theory layer: bridges the native solver's active
// rows onto the incremental rational simplex (linalg/simplex.hpp).
//
// The bridge owns one persistent Simplex per search context. Tableau
// structure is permanent and deduplicated: each distinct linear form gets
// one slack variable, keyed by its canonical sign (leading coefficient
// positive), so a ≤ atom and its negation — and re-activations of the same
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
#include <unordered_map>
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
  /// on top of the bounds already asserted. False when it crosses an
  /// asserted bound on the same linear form; crossing() then names the
  /// refuting tags.
  bool assert_row(const theory::Row& row, int tag);
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

  /// Deep self-audit: slack interning consistency (canonical-sign
  /// uniqueness — one slack per canonical form, row cache in agreement
  /// with the canonical index) plus the underlying tableau's own audit.
  /// Returns "" when every invariant holds, else a description of the
  /// first violation (see smt/audit.hpp).
  [[nodiscard]] std::string audit() const;

 private:
  // Slack handle for a canonical form: negated forms assert mirrored
  // bounds on the positively-signed slack.
  struct SlackRef {
    int var = -1;
    bool negated = false;
  };

  // A canonical form's slack: `row` is the first row interned with that
  // form (rows are immutable atom members that outlive the theory).
  struct Form {
    const theory::Row* row = nullptr;
    int var = -1;
  };

  SlackRef slack_for(const theory::Row& row);
  SlackRef intern_slack(const theory::Row& row);
  // The slack of the canonical form of `row` (form hash `h`), or -1.
  [[nodiscard]] int find_slack(std::uint64_t h, const theory::Row& row) const;
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
  // Two-level interning: by row identity (rows are stable, immutable atom
  // members — re-activation across checks is the hot case), then by
  // canonical form, hashed from the terms (distinct Row objects with the
  // same form, e.g. the ≤/≥ halves of an equality, share one slack).
  std::unordered_map<const theory::Row*, SlackRef> row_slack_;
  std::unordered_multimap<std::uint64_t, Form> slack_index_;
  std::vector<int> crossing_;
  std::uint64_t explanations_ = 0;
  std::uint64_t branch_budget_ = 0;  // per-check node budget (see .cpp)
  bool hints_ = false;
};

}  // namespace advocat::smt
