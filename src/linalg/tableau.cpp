#include "linalg/tableau.hpp"

#include <algorithm>
#include <string>

namespace advocat::linalg {

std::size_t Tableau::add_row(int owner, std::vector<Entry> entries) {
  const auto r = static_cast<std::uint32_t>(rows_.size());
  for (const Entry& e : entries) link(e.col, r);
  entry_cap_ += entries.capacity();
  owners_.push_back(owner);
  rows_.push_back(std::move(entries));
  return r;
}

Rational Tableau::coeff(std::size_t r, std::int32_t col) const {
  const Rational* c = find(r, col);
  return c != nullptr ? *c : Rational(0);
}

const Rational* Tableau::find(std::size_t r, std::int32_t col) const {
  const std::vector<Entry>& row = rows_[r];
  const auto it = std::lower_bound(
      row.begin(), row.end(), col,
      [](const Entry& e, std::int32_t c) { return e.col < c; });
  if (it == row.end() || it->col != col) return nullptr;
  return &it->coeff;
}

void Tableau::link(std::int32_t col, std::uint32_t r) {
  const auto c = static_cast<std::size_t>(col);
  if (c >= col_rows_.size()) col_rows_.resize(c + 1);
  std::vector<std::uint32_t>& rows = col_rows_[c];
  const std::size_t before = rows.capacity();
  rows.insert(std::lower_bound(rows.begin(), rows.end(), r), r);
  list_words_ += rows.capacity() - before;
}

void Tableau::unlink(std::int32_t col, std::uint32_t r) {
  std::vector<std::uint32_t>& rows = col_rows_[static_cast<std::size_t>(col)];
  rows.erase(std::lower_bound(rows.begin(), rows.end(), r));
}

void Tableau::pivot_row(std::size_t r, std::int32_t enter,
                        std::int32_t leave, const Rational& inv) {
  std::vector<Entry>& row = rows_[r];
  const auto by_col = [](const Entry& e, std::int32_t c) {
    return e.col < c;
  };
  // `enter`'s slot moves to `leave`'s sorted place (`leave` owns the row,
  // so it is not in it): one rotation shifts the entries in between.
  auto slot = std::lower_bound(row.begin(), row.end(), enter, by_col);
  const auto place = std::lower_bound(row.begin(), row.end(), leave, by_col);
  if (place > slot) {
    std::rotate(slot, slot + 1, place);
    slot = place - 1;
  } else {
    std::rotate(place, slot, slot + 1);
    slot = place;
  }
  const Rational neg_inv = -inv;
  for (auto it = row.begin(); it != row.end(); ++it) {
    if (it != slot) it->coeff *= neg_inv;
  }
  *slot = Entry{leave, inv};
  const auto ri = static_cast<std::uint32_t>(r);
  unlink(enter, ri);
  link(leave, ri);
}

void Tableau::pivot_merge(std::size_t r, std::int32_t enter,
                          const Rational& factor, std::span<const Entry> nr) {
  std::vector<Entry>& row = rows_[r];
  const auto ri = static_cast<std::uint32_t>(r);
  merged_.clear();
  merged_.reserve(row.size() + nr.size());
  // Same two-list merge (and the same per-entry arithmetic, in the same
  // order) as SparseRow::add_scaled, with row(r)'s `enter` entry skipped —
  // its coefficient is exactly `factor` and cancels by construction. Each
  // column the row gains or loses is linked or unlinked where the merge
  // meets it.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < row.size() || j < nr.size()) {
    if (i < row.size() && row[i].col == enter) {
      unlink(enter, ri);
      ++i;
    } else if (j == nr.size() || (i < row.size() && row[i].col < nr[j].col)) {
      merged_.push_back(std::move(row[i++]));
    } else if (i == row.size() || nr[j].col < row[i].col) {
      Rational c = nr[j].coeff * factor;
      if (!c.is_zero()) {
        link(nr[j].col, ri);
        merged_.push_back(Entry{nr[j].col, std::move(c)});
      }
      ++j;
    } else {
      Rational c = row[i].coeff + nr[j].coeff * factor;
      if (c.is_zero()) {
        unlink(row[i].col, ri);
      } else {
        merged_.push_back(Entry{row[i].col, std::move(c)});
      }
      ++i;
      ++j;
    }
  }
  // The old row's storage becomes the next merge buffer.
  entry_cap_ += merged_.capacity();
  entry_cap_ -= row.capacity();
  row.swap(merged_);
}

std::string Tableau::audit() const {
  if (owners_.size() != rows_.size()) return "tableau: owners/rows mismatch";
  std::size_t cap = 0;
  std::vector<std::vector<std::uint32_t>> lists(col_rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const std::vector<Entry>& row = rows_[r];
    cap += row.capacity();
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0 && row[i - 1].col >= row[i].col) {
        return "tableau row " + std::to_string(r) + ": columns not increasing";
      }
      if (row[i].coeff.is_zero()) {
        return "tableau row " + std::to_string(r) +
               ": stored zero coefficient";
      }
      const auto c = static_cast<std::size_t>(row[i].col);
      if (c >= lists.size()) return "tableau: column without a row list";
      lists[c].push_back(static_cast<std::uint32_t>(r));
    }
  }
  if (cap != entry_cap_) return "tableau: row capacity miscounted";
  std::size_t words = 0;
  for (std::size_t c = 0; c < col_rows_.size(); ++c) {
    if (lists[c] != col_rows_[c]) {
      return "tableau column " + std::to_string(c) +
             ": row list disagrees with the rows";
    }
    words += col_rows_[c].capacity();
  }
  if (words != list_words_) return "tableau: row-list capacity miscounted";
  return {};
}

}  // namespace advocat::linalg
