// Row storage for the simplex tableau.
//
// Each row is one sorted, zero-free vector of entries, addressed by a
// stable index (the same index VarState::basic_row uses). Alongside the
// rows the class keeps, for every column, the ascending list of rows that
// mention it, so the Dutertre–de Moura update and pivot loops in
// simplex.cpp visit only the few rows holding a column instead of sweeping
// the tableau. A pivot merge links and unlinks each column as the merge
// meets it, so a substituted row is walked once.
//
// Arithmetic on coefficients is SparseRow::add_scaled's, in the same
// order; rows, pivots and multipliers therefore do not depend on this
// layout.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/sparse_row.hpp"

namespace advocat::linalg {

class Tableau {
 public:
  /// Appends a new row owned by extended variable `owner` with `entries`
  /// (sorted, zero-free). Returns the row index.
  std::size_t add_row(int owner, std::vector<Entry> entries);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] int owner(std::size_t r) const { return owners_[r]; }
  void set_owner(std::size_t r, int owner) { owners_[r] = owner; }

  /// The entries of row `r`, ascending by column; invalidated by any
  /// mutation of the row.
  [[nodiscard]] std::span<const Entry> row(std::size_t r) const {
    return rows_[r];
  }
  /// Coefficient of column `col` in row `r`; zero when absent.
  [[nodiscard]] Rational coeff(std::size_t r, std::int32_t col) const;
  /// The stored coefficient of column `col` in row `r`, or null when
  /// absent; invalidated by any mutation of the row.
  [[nodiscard]] const Rational* find(std::size_t r, std::int32_t col) const;
  /// The rows mentioning column `col`, ascending; invalidated by any
  /// mutation of the tableau.
  [[nodiscard]] std::span<const std::uint32_t> rows_with(
      std::int32_t col) const {
    const auto c = static_cast<std::size_t>(col);
    if (c >= col_rows_.size()) return {};
    return col_rows_[c];
  }
  /// Number of rows mentioning column `col`.
  [[nodiscard]] std::int32_t col_count(std::int32_t col) const {
    return static_cast<std::int32_t>(rows_with(col).size());
  }

  /// Pivots row `r` (owned by `leave`) in place onto column `enter`:
  /// from  leave = a·enter + rest  it stores  enter = inv·leave − inv·rest
  /// with inv = 1/a. Every other entry is multiplied by −inv, `enter`
  /// leaves the row and `leave` joins it with coefficient `inv`; only
  /// those two columns change their lists, and no storage is allocated.
  void pivot_row(std::size_t r, std::int32_t enter, std::int32_t leave,
                 const Rational& inv);

  /// row(r) := (row(r) without column `enter`) + factor·nr, computed with
  /// exactly SparseRow::add_scaled's merge arithmetic. `nr` must not
  /// mention `enter`; the caller guarantees row(r)'s coefficient of
  /// `enter` cancels exactly (the Bland pivot property).
  void pivot_merge(std::size_t r, std::int32_t enter, const Rational& factor,
                   std::span<const Entry> nr);

  /// Bytes held by the rows and the per-column row lists: their
  /// capacities plus one vector header per row and per column.
  [[nodiscard]] std::size_t bytes() const {
    return entry_cap_ * sizeof(Entry) +
           rows_.size() * sizeof(std::vector<Entry>) +
           list_words_ * sizeof(std::uint32_t) +
           col_rows_.size() * sizeof(std::vector<std::uint32_t>);
  }

  /// Structural self-check: every row's columns strictly increase with no
  /// stored zero, the column lists hold exactly the rows mentioning each
  /// column (ascending), and both capacity counts are exact. Returns ""
  /// when consistent, else a description of the violation.
  [[nodiscard]] std::string audit() const;

 private:
  void link(std::int32_t col, std::uint32_t r);
  void unlink(std::int32_t col, std::uint32_t r);

  std::vector<int> owners_;
  std::vector<std::vector<Entry>> rows_;
  // column -> the rows mentioning it, ascending
  std::vector<std::vector<std::uint32_t>> col_rows_;
  std::size_t entry_cap_ = 0;    // summed capacities of rows_
  std::size_t list_words_ = 0;   // summed capacities of col_rows_
  std::vector<Entry> merged_;    // pivot_merge buffer; swapped with the row
};

}  // namespace advocat::linalg
