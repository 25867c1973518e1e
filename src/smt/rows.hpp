// Rendering linalg rows as theory-consumable SMT expressions.
//
// The native backend's atom translation maps the comparison
// `Σ c_i·x_i ⋈ k` (variables summed on the left, the constant alone on
// the right) 1:1 onto one theory::Row — and the simplex layer onto one
// tableau slack. Emitting that canonical shape uniformly from every
// encoder matters beyond taste: the invariant generator and the
// flow-completion encoder frequently produce the *same* row, and with one
// shape the expression hash-conses to one node, one theory atom, and one
// slack instead of a family of equivalent variants that each pay their
// own translation, activation, and learned-clause vocabulary.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "linalg/sparse_row.hpp"
#include "smt/expr.hpp"

namespace advocat::smt {

/// Renders the linalg row `Σ c_i·x_i + k  ⋈  0` (⋈ is `=` when `is_eq`,
/// `≤` otherwise) as the canonical comparison `Σ c_i·x_i ⋈ −k`.
/// `var_of` supplies the expression for a column. Coefficients and the
/// constant must be integral — normalize the row first.
inline ExprId row_expr(ExprFactory& f, const linalg::SparseRow& row,
                       const std::function<ExprId(std::int32_t)>& var_of,
                       bool is_eq) {
  std::vector<ExprId> terms;
  terms.reserve(row.entries().size());
  for (const linalg::Entry& e : row.entries()) {
    terms.push_back(f.mul_const(e.coeff.num().to_int64(), var_of(e.col)));
  }
  const ExprId lhs =
      terms.empty() ? f.int_const(0) : f.add(terms);
  const ExprId rhs = f.int_const(-row.constant().num().to_int64());
  return is_eq ? f.eq(lhs, rhs) : f.le(lhs, rhs);
}

}  // namespace advocat::smt
