// Sparse linear expressions over rational coefficients.
//
// A row represents the affine equation  Σ coeff_i · x_{col_i} + constant = 0.
// Columns are kept sorted by index and never store explicit zeros.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/rational.hpp"

namespace advocat::linalg {

using util::Rational;

struct Entry {
  std::int32_t col = 0;
  Rational coeff;

  bool operator==(const Entry&) const = default;
};

class SparseRow {
 public:
  SparseRow() = default;

  /// Adds `c` to the coefficient of column `col` (drops the entry when the
  /// sum is zero).
  void add(std::int32_t col, const Rational& c);
  void add_constant(const Rational& c) { constant_ += c; }

  [[nodiscard]] Rational coeff(std::int32_t col) const;
  [[nodiscard]] const Rational& constant() const { return constant_; }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const {
    return entries_.empty() && constant_.is_zero();
  }
  [[nodiscard]] bool has_variables() const { return !entries_.empty(); }

  /// row += factor * other (including the constant term).
  void add_scaled(const SparseRow& other, const Rational& factor);
  /// row += factor * Σ terms, for `terms` sorted by column and zero-free
  /// (a row without its constant, e.g. a simplex tableau row).
  void add_scaled(std::span<const Entry> terms, const Rational& factor);
  void scale(const Rational& factor);

  /// Multiplies by the least common multiple of all denominators and divides
  /// by the gcd of all numerators, so coefficients become coprime integers.
  /// Never flips the sign (safe for inequalities).
  void make_integral();

  /// make_integral() plus a sign flip so the leading nonzero coefficient is
  /// positive; canonical form for equalities.
  void normalize_integer();

  /// Lowest column index present, or -1 when the row has no variables.
  [[nodiscard]] std::int32_t min_col() const;

  bool operator==(const SparseRow&) const = default;

  /// Human-readable rendering, e.g. "x3 - 2*x7 + 1 = 0"; `name` maps a
  /// column index to a variable name.
  [[nodiscard]] std::string to_string(
      const std::function<std::string(std::int32_t)>& name) const;

 private:
  std::vector<Entry> entries_;  // sorted by col, no zero coefficients
  Rational constant_;
};

}  // namespace advocat::linalg
