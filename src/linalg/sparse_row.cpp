#include "linalg/sparse_row.hpp"

#include <algorithm>

#include "util/bigint.hpp"

namespace advocat::linalg {

using util::BigInt;

void SparseRow::add(std::int32_t col, const Rational& c) {
  if (c.is_zero()) return;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), col,
      [](const Entry& e, std::int32_t c2) { return e.col < c2; });
  if (it != entries_.end() && it->col == col) {
    it->coeff += c;
    if (it->coeff.is_zero()) entries_.erase(it);
  } else {
    entries_.insert(it, Entry{col, c});
  }
}

Rational SparseRow::coeff(std::int32_t col) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), col,
      [](const Entry& e, std::int32_t c2) { return e.col < c2; });
  if (it != entries_.end() && it->col == col) return it->coeff;
  return Rational(0);
}

void SparseRow::add_scaled(const SparseRow& other, const Rational& factor) {
  if (factor.is_zero()) return;
  add_scaled(other.entries_, factor);
  constant_ += other.constant_ * factor;
}

void SparseRow::add_scaled(std::span<const Entry> terms,
                           const Rational& factor) {
  if (factor.is_zero()) return;
  // Merge two sorted entry lists into a reused scratch buffer: elimination
  // calls this in a tight loop, and reusing one buffer's capacity avoids a
  // fresh allocation (plus the discarded old list) per call.
  static thread_local std::vector<Entry> merged;
  merged.clear();
  merged.reserve(entries_.size() + terms.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < entries_.size() || j < terms.size()) {
    if (j == terms.size() ||
        (i < entries_.size() && entries_[i].col < terms[j].col)) {
      merged.push_back(entries_[i++]);
    } else if (i == entries_.size() || terms[j].col < entries_[i].col) {
      Rational c = terms[j].coeff * factor;
      if (!c.is_zero()) merged.push_back(Entry{terms[j].col, std::move(c)});
      ++j;
    } else {
      Rational c = entries_[i].coeff + terms[j].coeff * factor;
      if (!c.is_zero()) merged.push_back(Entry{entries_[i].col, std::move(c)});
      ++i;
      ++j;
    }
  }
  // Swap rather than move so the scratch keeps (and grows) its capacity.
  entries_.swap(merged);
}

void SparseRow::scale(const Rational& factor) {
  if (factor.is_zero()) {
    entries_.clear();
    constant_ = Rational(0);
    return;
  }
  for (auto& e : entries_) e.coeff *= factor;
  constant_ *= factor;
}

void SparseRow::make_integral() {
  if (entries_.empty() && constant_.is_zero()) return;
  // lcm of denominators.
  BigInt lcm(1);
  auto fold = [&lcm](const Rational& r) {
    const BigInt& d = r.den();
    lcm = lcm / BigInt::gcd(lcm, d) * d;
  };
  for (const auto& e : entries_) fold(e.coeff);
  fold(constant_);
  scale(Rational(lcm));
  // gcd of numerators.
  BigInt g(0);
  for (const auto& e : entries_) g = BigInt::gcd(g, e.coeff.num());
  g = BigInt::gcd(g, constant_.num());
  if (!g.is_zero() && !g.is_one()) scale(Rational(BigInt(1), g));
}

void SparseRow::normalize_integer() {
  make_integral();
  const Rational& lead =
      entries_.empty() ? constant_ : entries_.front().coeff;
  if (lead.is_negative()) scale(Rational(-1));
}

std::int32_t SparseRow::min_col() const {
  return entries_.empty() ? -1 : entries_.front().col;
}

std::string SparseRow::to_string(
    const std::function<std::string(std::int32_t)>& name) const {
  std::string out;
  bool first = true;
  for (const auto& e : entries_) {
    const bool neg = e.coeff.is_negative();
    Rational mag = neg ? -e.coeff : e.coeff;
    if (first) {
      if (neg) out += "-";
    } else {
      out += neg ? " - " : " + ";
    }
    if (!mag.is_one()) out += mag.to_string() + "*";
    out += name(e.col);
    first = false;
  }
  if (!constant_.is_zero() || first) {
    const bool neg = constant_.is_negative();
    Rational mag = neg ? -constant_ : constant_;
    if (first) {
      if (neg) out += "-";
    } else {
      out += neg ? " - " : " + ";
    }
    out += mag.to_string();
  }
  out += " = 0";
  return out;
}

}  // namespace advocat::linalg
