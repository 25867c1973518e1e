// Cross-layer invariant generation (Section 4 of the paper).
//
// Extends the flow-invariant method of Chatterjee & Kishinevsky (CAV'10)
// with the paper's four automaton equation families:
//   (0) Σ_s A.s = 1                       (one-hot state encoding)
//   (1) Σ_{t into s} κ_t = Σ_{t out of s} κ_t + A.s − [s = s₀]
//   (2) per in-channel equivalence class I:  Σ_{(i,d)∈I} λ = Σ_{t∈T(I)} κ_t
//   (3) per out-channel equivalence class O: Σ_{(o,d')∈O} λ = Σ_{t∈T(O)} κ_t
// plus the standard per-primitive flow equations (queue, function, fork,
// join, switch, merge). Sweeping the λ and κ columns by exact Gaussian
// elimination leaves linear equations over queue occupancies #q.d and state
// indicators A.s — the cross-layer invariants. Rows whose eliminated
// coefficients all share a sign additionally yield ≤-inequalities (λ, κ are
// nonnegative counters).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/sparse_row.hpp"
#include "smt/expr.hpp"
#include "invariants/varspace.hpp"

namespace advocat::inv {

struct InvariantSet {
  /// Equalities Σ c·x + k = 0 over kept columns, canonical RREF.
  std::vector<linalg::SparseRow> equalities;
  /// Inequalities Σ c·x + k ≤ 0 over kept columns.
  std::vector<linalg::SparseRow> inequalities;
  /// Column space used by the rows. References `net` and `typing` passed to
  /// generate(); the InvariantSet must not outlive them.
  std::unique_ptr<VarSpace> vars;

  std::size_t rows_built = 0;
  /// Row operations of the λ/κ sweep (EliminationResult::row_ops).
  std::size_t row_ops = 0;
  double seconds = 0.0;

  [[nodiscard]] std::vector<std::string> to_strings() const;
  /// Renders every invariant as an SMT assertion over the shared variable
  /// names (see deadlock/varnames.hpp).
  [[nodiscard]] std::vector<smt::ExprId> to_smt(smt::ExprFactory& f) const;
};

/// Builds the flow matrix for `net` and sweeps λ/κ.
InvariantSet generate(const xmas::Network& net, const xmas::Typing& typing,
                      bool derive_inequalities = true);

/// The raw equation rows before elimination; exposed for tests.
std::vector<linalg::SparseRow> build_flow_rows(const xmas::Network& net,
                                               const xmas::Typing& typing,
                                               const VarSpace& vars);

/// Flow-completion constraints: asserts the *unprojected* flow system into
/// `f`, with fresh nonnegative integer variables for every λ/κ column tied
/// to the shared occupancy/state variables. A state satisfies these iff a
/// nonnegative flow count assignment explains it — strictly stronger
/// pruning than the projected equalities (which discard λ, κ ≥ 0), at the
/// cost of a larger SMT query. Extension over the paper's method.
std::vector<smt::ExprId> flow_completion_smt(const xmas::Network& net,
                                             const xmas::Typing& typing,
                                             smt::ExprFactory& f);

}  // namespace advocat::inv
