// Incremental rational simplex in the Dutertre–de Moura style ("A Fast
// Linear-Arithmetic Solver for DPLL(T)", CAV'06), over exact rationals.
//
// The solver decides feasibility of a conjunction of bounds on *extended*
// variables: problem columns plus slack variables, where each slack is
// defined to equal a linear form over problem columns. A caller encodes the
// constraint Σ c_i·x_i ≤ b by creating the slack s = Σ c_i·x_i once and
// asserting the bound s ≤ b; the matching ≥ constraint is a lower bound on
// the *same* slack, so complementary atom polarities share one tableau row.
//
// The API is incremental in both directions that matter to a CDCL(T) loop:
//
//  - structurally: slacks accumulate (the tableau is never rebuilt), and
//    the basis persists across check() calls, so a re-check after a few
//    bound flips usually needs only a handful of pivots;
//  - assertionally: bounds are trailed — mark() / retract_to() undo them
//    in LIFO order without touching the tableau or the current vertex
//    (retracting only loosens bounds, so the non-basic variables stay
//    inside theirs and the next check() starts from a consistent state).
//
// Every asserted bound carries a caller-chosen *tag*. When check() (or an
// assert on a crossing pair of bounds) reports infeasibility, the solver
// exposes a Farkas certificate: the tags of the contradicting bounds with
// exact positive rational multipliers such that the multiplier-weighted sum
// of the tagged inequalities (each read as a ≤-form) cancels every variable
// and leaves `0 ≤ negative`. Certificates are minimal in the standard
// simplex sense — one violated row plus the binding bounds of its non-basic
// variables — and are what the SMT layer turns into learned theory clauses.
//
// The leaving variable is the smallest-index violated basic variable. The
// entering variable is the suitable non-basic one that the fewest rows
// mention (the pivot rewrites exactly those rows, so the tableau stays
// sparse); after a fixed number of iterations in one check() the choice
// falls back to Bland's rule (smallest index), so check() terminates on
// every input without perturbation. The solver is fully deterministic.
//
// The tableau (csr_tableau.hpp) keeps the ascending list of rows that
// mention each column, so moving a non-basic value and pivoting visit only
// the rows holding that column, never the whole tableau.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/csr_tableau.hpp"
#include "linalg/sparse_row.hpp"

namespace advocat::linalg {

/// One term of a Farkas infeasibility certificate: the tag of an asserted
/// bound and its exact positive multiplier.
struct FarkasTerm {
  int tag = 0;
  Rational mult;
};

/// Cumulative effort/result counters for one Simplex instance.
struct SimplexStats {
  std::uint64_t pivots = 0;     ///< pivot-and-update steps performed
  std::uint64_t checks = 0;     ///< check() calls
  std::uint64_t conflicts = 0;  ///< Farkas certificates extracted
};

class Simplex {
 public:
  /// Extended variable backing problem column `col` (created on demand;
  /// stable across calls).
  int var(std::int32_t col);

  /// Creates a slack variable defined as Σ coeff·x_col over problem
  /// columns. The definition is permanent; constraints on the form are
  /// asserted as bounds on the returned variable. The caller is expected
  /// to deduplicate forms (one slack per distinct row).
  int add_slack(const std::vector<std::pair<std::int32_t, std::int64_t>>& terms);

  /// Bound-trail mark for retract_to().
  [[nodiscard]] std::size_t mark() const { return trail_.size(); }
  /// Retracts every bound asserted since `mark` (LIFO). Slack definitions
  /// and the current basis are untouched.
  void retract_to(std::size_t mark);

  /// Asserts x ≤ b (resp. x ≥ b) with explanation tag `tag`. Returns false
  /// when the new bound immediately crosses the opposite one — the Farkas
  /// certificate is then the two tags, multiplier 1 each. A bound looser
  /// than the current one is a no-op.
  bool assert_upper(int x, const Rational& b, int tag);
  bool assert_lower(int x, const Rational& b, int tag);

  /// Decides feasibility of the asserted bounds. True: every extended
  /// variable holds a value (value()) satisfying its bounds and all slack
  /// definitions. False: farkas() holds the infeasibility certificate.
  bool check();

  /// Certificate of the most recent infeasibility (check() == false or a
  /// failed assert); meaningless otherwise.
  [[nodiscard]] const std::vector<FarkasTerm>& farkas() const {
    return farkas_;
  }

  /// Current value of extended variable `x` (a satisfying vertex after a
  /// true check()).
  [[nodiscard]] const Rational& value(int x) const {
    return vars_[static_cast<std::size_t>(x)].beta;
  }

  [[nodiscard]] const SimplexStats& stats() const { return stats_; }

  /// Number of extended variables (problem columns + slacks) so far.
  [[nodiscard]] std::size_t num_vars() const { return vars_.size(); }

  /// Deep self-audit of the tableau invariants (basis/nonbasis partition,
  /// rows over non-basic variables only, row identities βs = expr(β),
  /// non-crossing bounds, non-basic variables inside their bounds, trail
  /// well-formedness). Returns "" when every invariant holds, else a
  /// description of the first violation. O(rows × entries); meant for the
  /// ADVOCAT_AUDIT harness (smt/audit.hpp), not for production paths.
  [[nodiscard]] std::string audit() const;

  /// Hook polled at every pivot step (and check() iteration); lets a host
  /// solver enforce deadlines by throwing — the tableau is only mutated
  /// after the poll, so an exception leaves the solver consistent and a
  /// later retract_to()/check() recovers.
  void set_tick(std::function<void()> tick) { tick_ = std::move(tick); }

  /// Inline bytes held by the tableau pools (CSR entries, column lists,
  /// variable states, bound trail). Feeds the solver's memory ceiling;
  /// BigInt heap records (header and limbs) are gauged separately
  /// (util::BigInt heap_bytes_in_use), so the two add without double
  /// counting the inline representation.
  [[nodiscard]] std::size_t pool_bytes() const {
    return tab_.pool_size() * (sizeof(std::int32_t) + sizeof(Rational)) +
           tab_.list_bytes() + vars_.size() * sizeof(VarState) +
           trail_.size() * sizeof(TrailEntry);
  }

 private:
  struct VarState {
    Rational beta;          // current value
    Rational lo, hi;        // meaningful only when has_lo / has_hi
    bool has_lo = false;
    bool has_hi = false;
    int lo_tag = 0;
    int hi_tag = 0;
    int basic_row = -1;     // index into rows_ when basic
  };

  // One restorable bound change (assert_upper/lower push these).
  struct TrailEntry {
    int var;
    bool is_hi;
    bool had;
    Rational old_bound;
    int old_tag;
  };

  int new_var();
  // Sets non-basic `x` to v and updates every basic variable's value.
  void update(int x, const Rational& v);
  // Pivots basic `leave` against non-basic `enter` and moves `leave` to v.
  void pivot_and_update(int leave, int enter, const Rational& v);
  // Farkas certificate for basic variable `x` stuck outside its bound.
  void explain_row(int x, bool below);

  std::vector<VarState> vars_;
  // Tableau rows: x_owner(r) = row(r), where each row mentions non-basic
  // extended variables only (constants never occur — callers fold them into
  // bounds). Stored in packed CSR form with per-column row lists, so an
  // update or pivot visits only the rows holding its column;
  // VarState::basic_row indexes into it.
  CsrTableau tab_;
  std::vector<std::pair<std::int32_t, int>> col_index_;  // sorted col → var
  std::vector<TrailEntry> trail_;
  std::vector<FarkasTerm> farkas_;
  // pivot_and_update scratch: the other rows mentioning the entering
  // variable, with its coefficient there.
  std::vector<std::pair<std::size_t, Rational>> pivot_rows_;
  SimplexStats stats_;
  std::function<void()> tick_;
};

}  // namespace advocat::linalg
