// Gaussian elimination that sweeps a designated set of columns.
//
// The invariant generator (src/invariants) builds a system of affine
// equations over three kinds of variables: flow counters (λ), transition
// counters (κ) and state variables (#q.d occupancies and A.s indicators).
// Following Chatterjee & Kishinevsky, the λ/κ columns are eliminated; every
// row that survives with only state columns is an inductive invariant.
//
// All arithmetic is exact (rational). Pivoting follows a minimum-degree
// (Markowitz-style) rule to limit fill-in on the sparse, mostly-local flow
// matrices: the next column is the pending one held by the fewest active
// rows, ties to the lowest column, and its pivot row is the one with the
// fewest entries, ties to the lowest row index. Each column's degree is
// kept exactly and updated only for the pivot row's columns, so picking a
// column costs a log-time lookup rather than a rescan. The pivot sequence
// is a function of the input rows and their order alone, never of
// hash-container iteration; the equalities do not depend on row order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/sparse_row.hpp"

namespace advocat::linalg {

struct EliminationResult {
  /// Equations Σ b_j·k_j + c = 0 over keep columns only, in reduced row
  /// echelon form with coprime integer coefficients.
  std::vector<SparseRow> equalities;
  /// Inequalities Σ b_j·k_j + c ≤ 0 over keep columns, derived from pivot
  /// rows whose eliminated coefficients all share one sign (eliminated
  /// variables are counters, hence nonnegative).
  std::vector<SparseRow> inequalities;
  /// True when elimination produced the row "nonzero constant = 0", i.e.
  /// the input system was inconsistent. Never expected for flow matrices.
  bool inconsistent = false;
  std::size_t pivot_count = 0;
  /// Row operations (row += factor·pivot) the sweep performed: a
  /// deterministic measure of elimination work.
  std::size_t row_ops = 0;
};

class Eliminator {
 public:
  /// `is_eliminated(col)` selects the columns to sweep. All eliminated
  /// variables are assumed nonnegative when `derive_inequalities` is set.
  static EliminationResult eliminate(std::vector<SparseRow> rows,
                                     const std::function<bool(std::int32_t)>&
                                         is_eliminated,
                                     bool derive_inequalities = true);

  /// In-place Gauss–Jordan over every column; used to canonicalize the
  /// surviving invariant rows. Returns false on inconsistency.
  static bool reduce_rref(std::vector<SparseRow>& rows);
};

}  // namespace advocat::linalg
