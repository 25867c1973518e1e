// Packed CSR-style storage for the simplex tableau.
//
// The Dutertre–de Moura pivot loops in simplex.cpp touch every tableau row
// per update (binary-searching each row for the entering column), so the
// row entries' memory layout dominates the solver's cache behaviour. A
// vector-of-SparseRow layout scatters each row's entries behind two levels
// of indirection; this class stores every row's columns and coefficients in
// two contiguous pools addressed by per-row {offset, length, capacity}
// spans, so a full-tableau sweep walks memory forward.
//
// Rows are addressed by a stable index (the same index VarState::basic_row
// uses). Rewriting a row with more entries than its span capacity relocates
// the span to the end of the pools and marks the old words as waste; when
// waste exceeds half the pool the pools are compacted in row order. Neither
// relocation nor compaction is observable through the accessors — callers
// must simply not hold raw entry pointers across a mutation.
//
// All arithmetic on coefficients is performed by the caller; this class
// only moves values, so switching Simplex onto it cannot change results.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/sparse_row.hpp"

namespace advocat::linalg {

class CsrTableau {
 public:
  /// Appends a new row owned by extended variable `owner`, copying the
  /// (sorted, zero-free) entries of `expr`. Returns the row index.
  std::size_t add_row(int owner, const SparseRow& expr);

  [[nodiscard]] std::size_t num_rows() const { return spans_.size(); }
  [[nodiscard]] int owner(std::size_t r) const { return owners_[r]; }
  void set_owner(std::size_t r, int owner) { owners_[r] = owner; }

  [[nodiscard]] std::uint32_t row_len(std::size_t r) const {
    return spans_[r].len;
  }
  /// Contiguous column / coefficient views of row `r`; invalidated by any
  /// mutation of the tableau.
  [[nodiscard]] const std::int32_t* row_cols(std::size_t r) const {
    return cols_.data() + spans_[r].off;
  }
  [[nodiscard]] const Rational* row_coeffs(std::size_t r) const {
    return coeffs_.data() + spans_[r].off;
  }

  /// Coefficient of column `col` in row `r` (binary search over the sorted
  /// span); zero when absent.
  [[nodiscard]] Rational coeff(std::size_t r, std::int32_t col) const;
  /// The stored coefficient of column `col` in row `r`, or null when
  /// absent; invalidated by any mutation of the tableau.
  [[nodiscard]] const Rational* find(std::size_t r, std::int32_t col) const;
  /// Number of rows mentioning column `col`.
  [[nodiscard]] std::int32_t col_count(std::int32_t col) const {
    const auto c = static_cast<std::size_t>(col);
    return c < col_count_.size() ? col_count_[c] : 0;
  }

  /// Copies row `r` out into SparseRow form (for the cold paths that reuse
  /// SparseRow's merge arithmetic, e.g. slack expansion and row pivoting).
  [[nodiscard]] SparseRow to_sparse(std::size_t r) const;

  /// Replaces row `r`'s entries with `entries` (sorted, zero-free),
  /// relocating the span when it outgrows its capacity.
  void replace_row(std::size_t r, const std::vector<Entry>& entries);

  /// row(r) := (row(r) without column `enter`) + factor·nr, computed with
  /// exactly SparseRow::add_scaled's merge arithmetic. `nr` must not
  /// mention `enter`; the caller guarantees row(r)'s coefficient of
  /// `enter` cancels exactly (the Bland pivot property).
  void pivot_merge(std::size_t r, std::int32_t enter, const Rational& factor,
                   const SparseRow& nr);

  /// Pool words currently wasted by relocated spans (audit/bench hook).
  [[nodiscard]] std::size_t wasted() const { return wasted_; }
  [[nodiscard]] std::size_t pool_size() const { return cols_.size(); }

  /// Structural self-check of the span bookkeeping (spans in bounds,
  /// columns strictly increasing, no stored zeros, waste accounting).
  /// Returns "" when consistent, else a description of the violation.
  [[nodiscard]] std::string audit() const;

 private:
  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  void write_row(Span& s, const std::vector<Entry>& entries);
  void maybe_compact();
  void count_col(std::int32_t col, int delta);

  std::vector<int> owners_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> col_count_;  // column -> rows mentioning it
  std::vector<std::int32_t> cols_;   // all rows' columns, span-addressed
  std::vector<Rational> coeffs_;     // parallel coefficient pool
  std::size_t wasted_ = 0;           // words abandoned by span relocation
  std::vector<Entry> scratch_;       // pivot_merge merge buffer, reused
};

}  // namespace advocat::linalg
