#include "linalg/eliminator.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace advocat::linalg {

namespace {

// Marks, per entry of `pattern`, whether `row` has a nonzero coefficient in
// that column (one merge pass over the two sorted entry lists).
void mark_columns(const SparseRow& row, const SparseRow& pattern,
                  std::vector<char>& out) {
  const std::vector<Entry>& a = row.entries();
  const std::vector<Entry>& b = pattern.entries();
  out.assign(b.size(), 0);
  std::size_t i = 0;
  for (std::size_t j = 0; j < b.size(); ++j) {
    while (i < a.size() && a[i].col < b[j].col) ++i;
    out[j] = static_cast<char>(i < a.size() && a[i].col == b[j].col);
  }
}

}  // namespace

EliminationResult Eliminator::eliminate(
    std::vector<SparseRow> rows,
    const std::function<bool(std::int32_t)>& is_eliminated,
    bool derive_inequalities) {
  EliminationResult result;

  std::size_t num_cols = 0;
  for (const SparseRow& row : rows) {
    if (row.has_variables()) {
      num_cols = std::max<std::size_t>(num_cols, row.entries().back().col + 1);
    }
  }
  std::vector<char> eliminated(num_cols);
  for (std::size_t c = 0; c < num_cols; ++c) {
    eliminated[c] = static_cast<char>(is_eliminated(static_cast<std::int32_t>(c)));
  }

  // Per swept column: its exact degree (active rows holding it) and the
  // rows that have held it since the start, a superset of the live ones
  // that is filtered when the column is pivoted on.
  std::vector<std::size_t> degree(num_cols, 0);
  std::vector<std::vector<std::size_t>> col_rows(num_cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const Entry& e : rows[r].entries()) {
      if (!eliminated[e.col]) continue;
      ++degree[e.col];
      col_rows[e.col].push_back(r);
    }
  }
  // Pending columns by (degree, column); a column leaves at degree 0.
  std::set<std::pair<std::size_t, std::int32_t>> pending;
  for (std::size_t c = 0; c < num_cols; ++c) {
    if (degree[c] > 0) pending.emplace(degree[c], static_cast<std::int32_t>(c));
  }
  auto shift_degree = [&](std::int32_t col, bool up) {
    std::size_t& d = degree[col];
    pending.erase({d, col});
    d = up ? d + 1 : d - 1;
    if (d > 0) pending.emplace(d, col);
  };

  std::vector<bool> active(rows.size(), true);
  std::vector<std::size_t> pivot_rows;
  std::vector<char> before;
  std::vector<char> after;
  while (!pending.empty()) {
    const std::int32_t col = pending.begin()->second;
    pending.erase(pending.begin());
    degree[col] = 0;
    std::vector<std::size_t> candidates = std::move(col_rows[col]);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::erase_if(candidates, [&](std::size_t r) {
      return !active[r] || rows[r].coeff(col).is_zero();
    });

    // Pivot on the sparsest row containing the column (lowest index on ties).
    std::size_t pivot = candidates.front();
    for (std::size_t r : candidates) {
      if (rows[r].entries().size() < rows[pivot].entries().size()) pivot = r;
    }
    const SparseRow& prow = rows[pivot];
    const Rational pivot_coeff = prow.coeff(col);
    for (std::size_t r : candidates) {
      if (r == pivot) continue;
      // Only the pivot row's columns can enter or leave row r.
      mark_columns(rows[r], prow, before);
      rows[r].add_scaled(prow, -(rows[r].coeff(col) / pivot_coeff));
      ++result.row_ops;
      mark_columns(rows[r], prow, after);
      for (std::size_t j = 0; j < before.size(); ++j) {
        const std::int32_t c = prow.entries()[j].col;
        if (before[j] == after[j] || c == col || !eliminated[c]) continue;
        if (after[j] != 0) col_rows[c].push_back(r);
        shift_degree(c, after[j] != 0);
      }
    }
    // Retiring the pivot row lowers the degree of its other swept columns.
    for (const Entry& e : prow.entries()) {
      if (e.col != col && eliminated[e.col]) shift_degree(e.col, false);
    }
    active[pivot] = false;
    pivot_rows.push_back(pivot);
    ++result.pivot_count;
  }

  // Surviving active rows mention keep columns only.
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!active[r] || rows[r].empty()) continue;
    if (!rows[r].has_variables()) {
      // constant = 0 with nonzero constant: inconsistent input.
      result.inconsistent = true;
      continue;
    }
    result.equalities.push_back(std::move(rows[r]));
  }
  if (!reduce_rref(result.equalities)) result.inconsistent = true;
  for (auto& row : result.equalities) row.normalize_integer();
  std::sort(result.equalities.begin(), result.equalities.end(),
            [](const SparseRow& a, const SparseRow& b) {
              return a.min_col() < b.min_col();
            });

  if (derive_inequalities) {
    for (std::size_t r : pivot_rows) {
      const SparseRow& row = rows[r];
      int sign = 0;  // common sign of eliminated coefficients
      bool uniform = true;
      SparseRow keep_part;
      for (const auto& e : row.entries()) {
        if (eliminated[e.col]) {
          const int s = e.coeff.is_negative() ? -1 : 1;
          if (sign == 0) sign = s;
          else if (sign != s) { uniform = false; break; }
        } else {
          keep_part.add(e.col, e.coeff);
        }
      }
      if (!uniform || sign == 0) continue;
      keep_part.add_constant(row.constant());
      if (keep_part.empty() || !keep_part.has_variables()) continue;
      // Σ a·e + keep = 0 with a·sign > 0 and e ≥ 0  ⇒  sign·keep ≤ 0.
      if (sign < 0) keep_part.scale(Rational(-1));
      keep_part.make_integral();
      result.inequalities.push_back(std::move(keep_part));
    }
    std::sort(result.inequalities.begin(), result.inequalities.end(),
              [](const SparseRow& a, const SparseRow& b) {
                return a.min_col() < b.min_col();
              });
    result.inequalities.erase(
        std::unique(result.inequalities.begin(), result.inequalities.end()),
        result.inequalities.end());
  }
  return result;
}

bool Eliminator::reduce_rref(std::vector<SparseRow>& rows) {
  bool consistent = true;
  std::vector<SparseRow> done;
  std::vector<SparseRow> todo = std::move(rows);
  while (!todo.empty()) {
    // Pick the row whose leading column is smallest.
    std::size_t best = 0;
    for (std::size_t i = 1; i < todo.size(); ++i) {
      if (todo[i].min_col() != -1 &&
          (todo[best].min_col() == -1 ||
           todo[i].min_col() < todo[best].min_col())) {
        best = i;
      }
    }
    SparseRow pivot = std::move(todo[best]);
    todo.erase(todo.begin() + static_cast<std::ptrdiff_t>(best));
    if (!pivot.has_variables()) {
      if (!pivot.constant().is_zero()) consistent = false;
      continue;
    }
    const std::int32_t col = pivot.min_col();
    pivot.scale(pivot.coeff(col).reciprocal());
    for (auto& row : todo) {
      const Rational c = row.coeff(col);
      if (!c.is_zero()) row.add_scaled(pivot, -c);
    }
    for (auto& row : done) {
      const Rational c = row.coeff(col);
      if (!c.is_zero()) row.add_scaled(pivot, -c);
    }
    done.push_back(std::move(pivot));
  }
  done.erase(std::remove_if(done.begin(), done.end(),
                            [](const SparseRow& r) { return r.empty(); }),
             done.end());
  rows = std::move(done);
  return consistent;
}

}  // namespace advocat::linalg
