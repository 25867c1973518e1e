#include "util/rational.hpp"

#include <stdexcept>
#include <utility>

namespace advocat::util {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
  normalize();
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::gcd(num_, den_);
  if (!g.is_one()) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Rational Rational::add_fraction(const Rational& rhs) const {
  return Rational(num_ * rhs.den_ + rhs.num_ * den_, den_ * rhs.den_);
}

Rational Rational::sub_fraction(const Rational& rhs) const {
  return Rational(num_ * rhs.den_ - rhs.num_ * den_, den_ * rhs.den_);
}

Rational Rational::mul_fraction(const Rational& rhs) const {
  return Rational(num_ * rhs.num_, den_ * rhs.den_);
}

std::strong_ordering Rational::compare_fraction(const Rational& rhs) const {
  return (num_ * rhs.den_) <=> (rhs.num_ * den_);
}

Rational Rational::operator/(const Rational& rhs) const {
  if (rhs.is_zero()) throw std::domain_error("Rational: division by zero");
  return Rational(num_ * rhs.den_, den_ * rhs.num_);
}

Rational Rational::reciprocal() const {
  if (is_zero()) throw std::domain_error("Rational: reciprocal of zero");
  return Rational(den_, num_);
}

std::string Rational::to_string() const {
  if (den_.is_one()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

}  // namespace advocat::util
