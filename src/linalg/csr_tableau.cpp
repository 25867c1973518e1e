#include "linalg/csr_tableau.hpp"

#include <algorithm>
#include <string>

namespace advocat::linalg {

std::size_t CsrTableau::add_row(int owner, const SparseRow& expr) {
  Span s;
  s.off = static_cast<std::uint32_t>(cols_.size());
  s.len = static_cast<std::uint32_t>(expr.entries().size());
  s.cap = s.len;
  const auto r = static_cast<std::uint32_t>(spans_.size());
  cols_.reserve(cols_.size() + s.len);
  coeffs_.reserve(coeffs_.size() + s.len);
  for (const Entry& e : expr.entries()) {
    link(e.col, r);
    cols_.push_back(e.col);
    coeffs_.push_back(e.coeff);
  }
  owners_.push_back(owner);
  spans_.push_back(s);
  return spans_.size() - 1;
}

Rational CsrTableau::coeff(std::size_t r, std::int32_t col) const {
  const Rational* c = find(r, col);
  return c != nullptr ? *c : Rational(0);
}

const Rational* CsrTableau::find(std::size_t r, std::int32_t col) const {
  const Span& s = spans_[r];
  const std::int32_t* begin = cols_.data() + s.off;
  const std::int32_t* end = begin + s.len;
  const std::int32_t* it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return nullptr;
  return coeffs_.data() + s.off + static_cast<std::size_t>(it - begin);
}

void CsrTableau::link(std::int32_t col, std::uint32_t r) {
  const auto c = static_cast<std::size_t>(col);
  if (c >= col_rows_.size()) col_rows_.resize(c + 1);
  std::vector<std::uint32_t>& rows = col_rows_[c];
  const std::size_t before = rows.capacity();
  rows.insert(std::lower_bound(rows.begin(), rows.end(), r), r);
  list_words_ += rows.capacity() - before;
}

void CsrTableau::unlink(std::int32_t col, std::uint32_t r) {
  std::vector<std::uint32_t>& rows = col_rows_[static_cast<std::size_t>(col)];
  rows.erase(std::lower_bound(rows.begin(), rows.end(), r));
}

SparseRow CsrTableau::to_sparse(std::size_t r) const {
  const Span& s = spans_[r];
  std::vector<Entry> entries;
  entries.reserve(s.len);
  for (std::uint32_t i = 0; i < s.len; ++i) {
    entries.push_back(Entry{cols_[s.off + i], coeffs_[s.off + i]});
  }
  return SparseRow::from_sorted(std::move(entries));
}

void CsrTableau::write_row(std::size_t r, const std::vector<Entry>& entries) {
  Span& s = spans_[r];
  // Both column lists are sorted: one merge finds the columns the row
  // gains and loses, and only their row lists change.
  const auto row = static_cast<std::uint32_t>(r);
  std::uint32_t oi = 0;
  std::size_t ni = 0;
  while (oi < s.len || ni < entries.size()) {
    const std::int32_t old_col = oi < s.len ? cols_[s.off + oi] : 0;
    if (ni == entries.size() || (oi < s.len && old_col < entries[ni].col)) {
      unlink(old_col, row);
      ++oi;
    } else if (oi == s.len || entries[ni].col < old_col) {
      link(entries[ni].col, row);
      ++ni;
    } else {
      ++oi;
      ++ni;
    }
  }
  if (entries.size() <= s.cap) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      cols_[s.off + i] = entries[i].col;
      coeffs_[s.off + i] = entries[i].coeff;
    }
    // Clear abandoned coefficient slots so they don't pin heap rationals.
    for (std::size_t i = entries.size(); i < s.len; ++i) {
      coeffs_[s.off + i] = Rational(0);
    }
    s.len = static_cast<std::uint32_t>(entries.size());
    return;
  }
  // Relocate to the end of the pools with growth slack; the old span
  // becomes waste until the next compaction.
  wasted_ += s.cap;
  for (std::uint32_t i = 0; i < s.len; ++i) {
    coeffs_[s.off + i] = Rational(0);
  }
  s.off = static_cast<std::uint32_t>(cols_.size());
  s.len = static_cast<std::uint32_t>(entries.size());
  s.cap = s.len + s.len / 2;
  cols_.resize(cols_.size() + s.cap, 0);
  coeffs_.resize(coeffs_.size() + s.cap);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    cols_[s.off + i] = entries[i].col;
    coeffs_[s.off + i] = entries[i].coeff;
  }
}

void CsrTableau::replace_row(std::size_t r, const std::vector<Entry>& entries) {
  write_row(r, entries);
  maybe_compact();
}

void CsrTableau::pivot_merge(std::size_t r, std::int32_t enter,
                             const Rational& factor, const SparseRow& nr) {
  const Span s = spans_[r];  // copy: scratch_ growth never touches pools
  const std::vector<Entry>& other = nr.entries();
  scratch_.clear();
  scratch_.reserve(s.len + other.size());
  // Same two-list merge (and the same per-entry arithmetic, in the same
  // order) as SparseRow::add_scaled, with row(r)'s `enter` entry skipped —
  // its coefficient is exactly `factor` and cancels by construction.
  std::uint32_t i = 0;
  std::size_t j = 0;
  while (i < s.len || j < other.size()) {
    const std::int32_t ci =
        i < s.len ? cols_[s.off + i] : 0;
    if (i < s.len && ci == enter) {
      ++i;
      continue;
    }
    if (j == other.size() || (i < s.len && ci < other[j].col)) {
      scratch_.push_back(Entry{ci, coeffs_[s.off + i]});
      ++i;
    } else if (i == s.len || other[j].col < ci) {
      Rational c = other[j].coeff * factor;
      if (!c.is_zero()) scratch_.push_back(Entry{other[j].col, std::move(c)});
      ++j;
    } else {
      Rational c = coeffs_[s.off + i] + other[j].coeff * factor;
      if (!c.is_zero()) scratch_.push_back(Entry{ci, std::move(c)});
      ++i;
      ++j;
    }
  }
  replace_row(r, scratch_);
}

void CsrTableau::maybe_compact() {
  if (wasted_ * 2 < cols_.size() || wasted_ == 0) return;
  std::vector<std::int32_t> nc;
  std::vector<Rational> nf;
  nc.reserve(cols_.size() - wasted_);
  nf.reserve(cols_.size() - wasted_);
  for (Span& s : spans_) {
    const std::uint32_t off = static_cast<std::uint32_t>(nc.size());
    for (std::uint32_t i = 0; i < s.len; ++i) {
      nc.push_back(cols_[s.off + i]);
      nf.push_back(std::move(coeffs_[s.off + i]));
    }
    s.off = off;
    s.cap = s.len;
  }
  cols_ = std::move(nc);
  coeffs_ = std::move(nf);
  wasted_ = 0;
}

std::string CsrTableau::audit() const {
  if (owners_.size() != spans_.size()) return "csr: owners/spans mismatch";
  if (cols_.size() != coeffs_.size()) return "csr: cols/coeffs mismatch";
  std::size_t live_cap = 0;
  for (std::size_t r = 0; r < spans_.size(); ++r) {
    const Span& s = spans_[r];
    if (s.len > s.cap) {
      return "csr row " + std::to_string(r) + ": len exceeds cap";
    }
    if (static_cast<std::size_t>(s.off) + s.cap > cols_.size()) {
      return "csr row " + std::to_string(r) + ": span out of pool bounds";
    }
    live_cap += s.cap;
    for (std::uint32_t i = 0; i + 1 < s.len; ++i) {
      if (cols_[s.off + i] >= cols_[s.off + i + 1]) {
        return "csr row " + std::to_string(r) + ": columns not increasing";
      }
    }
    for (std::uint32_t i = 0; i < s.len; ++i) {
      if (coeffs_[s.off + i].is_zero()) {
        return "csr row " + std::to_string(r) + ": stored zero coefficient";
      }
    }
  }
  if (live_cap + wasted_ > cols_.size()) {
    return "csr: live capacity + waste exceeds pool";
  }
  std::vector<std::vector<std::uint32_t>> lists(col_rows_.size());
  for (std::size_t r = 0; r < spans_.size(); ++r) {
    const Span& s = spans_[r];
    for (std::uint32_t i = 0; i < s.len; ++i) {
      const auto c = static_cast<std::size_t>(cols_[s.off + i]);
      if (c >= lists.size()) return "csr: column without a row list";
      lists[c].push_back(static_cast<std::uint32_t>(r));
    }
  }
  std::size_t words = 0;
  for (std::size_t c = 0; c < col_rows_.size(); ++c) {
    if (lists[c] != col_rows_[c]) {
      return "csr column " + std::to_string(c) +
             ": row list disagrees with the rows";
    }
    words += col_rows_[c].capacity();
  }
  if (words != list_words_) return "csr: row-list capacity miscounted";
  return {};
}

}  // namespace advocat::linalg
