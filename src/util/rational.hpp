// Exact rational numbers on top of BigInt.
//
// Invariant: denominator > 0 and gcd(|num|, den) == 1 at all times (the
// constructor and every arithmetic operator re-normalize), so equality is
// structural.
//
// Integer operands (denominator 1 — nearly every coefficient of a
// network-flow tableau) take inline paths for + − × <=> that skip the cross
// products and the gcd: an integer result is already canonical. The
// fraction paths live in rational.cpp.
#pragma once

#include <compare>
#include <string>

#include "util/bigint.hpp"

namespace advocat::util {

class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(std::int64_t v) : num_(v), den_(1) {}  // NOLINT(google-explicit-constructor)
  Rational(BigInt num) : num_(std::move(num)), den_(1) {}  // NOLINT(google-explicit-constructor)
  /// Throws std::domain_error if den is zero.
  Rational(BigInt num, BigInt den);

  [[nodiscard]] const BigInt& num() const { return num_; }
  [[nodiscard]] const BigInt& den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_.is_zero(); }
  [[nodiscard]] bool is_negative() const { return num_.is_negative(); }
  [[nodiscard]] bool is_integer() const { return den_.is_one(); }
  [[nodiscard]] bool is_one() const { return num_.is_one() && den_.is_one(); }

  Rational operator-() const {
    Rational r = *this;
    r.num_ = -r.num_;
    return r;
  }
  Rational operator+(const Rational& rhs) const {
    if (is_integer() && rhs.is_integer()) return Rational(num_ + rhs.num_);
    return add_fraction(rhs);
  }
  Rational operator-(const Rational& rhs) const {
    if (is_integer() && rhs.is_integer()) return Rational(num_ - rhs.num_);
    return sub_fraction(rhs);
  }
  Rational operator*(const Rational& rhs) const {
    if (is_integer() && rhs.is_integer()) return Rational(num_ * rhs.num_);
    return mul_fraction(rhs);
  }
  /// Throws std::domain_error on division by zero.
  Rational operator/(const Rational& rhs) const;
  [[nodiscard]] Rational reciprocal() const;

  Rational& operator+=(const Rational& rhs) { return *this = *this + rhs; }
  Rational& operator-=(const Rational& rhs) { return *this = *this - rhs; }
  Rational& operator*=(const Rational& rhs) { return *this = *this * rhs; }
  Rational& operator/=(const Rational& rhs) { return *this = *this / rhs; }

  bool operator==(const Rational& rhs) const = default;
  std::strong_ordering operator<=>(const Rational& rhs) const {
    if (is_integer() && rhs.is_integer()) return num_ <=> rhs.num_;
    return compare_fraction(rhs);
  }

  /// "3", "-3", or "3/4".
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t hash() const {
    return num_.hash() * 31 + den_.hash();
  }

 private:
  void normalize();
  [[nodiscard]] Rational add_fraction(const Rational& rhs) const;
  [[nodiscard]] Rational sub_fraction(const Rational& rhs) const;
  [[nodiscard]] Rational mul_fraction(const Rational& rhs) const;
  [[nodiscard]] std::strong_ordering compare_fraction(
      const Rational& rhs) const;

  BigInt num_;
  BigInt den_;  // always > 0
};

static_assert(sizeof(Rational) == 32, "Rational is two two-word BigInts");

}  // namespace advocat::util
