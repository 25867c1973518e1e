// Rational: exact normalized fractions.
#include <gtest/gtest.h>

#include <random>

#include "util/rational.hpp"

namespace advocat::util {
namespace {

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(BigInt(6), BigInt(-8));
  EXPECT_EQ(r.num(), BigInt(-3));
  EXPECT_EQ(r.den(), BigInt(4));
  EXPECT_TRUE(r.is_negative());
  EXPECT_THROW(Rational(BigInt(1), BigInt(0)), std::domain_error);
}

TEST(Rational, ZeroHasCanonicalForm) {
  const Rational z(BigInt(0), BigInt(-17));
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.den(), BigInt(1));
  EXPECT_EQ(z, Rational(0));
}

TEST(Rational, Arithmetic) {
  const Rational half(BigInt(1), BigInt(2));
  const Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ(half + third, Rational(BigInt(5), BigInt(6)));
  EXPECT_EQ(half - third, Rational(BigInt(1), BigInt(6)));
  EXPECT_EQ(half * third, Rational(BigInt(1), BigInt(6)));
  EXPECT_EQ(half / third, Rational(BigInt(3), BigInt(2)));
  EXPECT_EQ(-half, Rational(BigInt(-1), BigInt(2)));
  EXPECT_THROW(half / Rational(0), std::domain_error);
  EXPECT_THROW(Rational(0).reciprocal(), std::domain_error);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(BigInt(1), BigInt(3)), Rational(BigInt(1), BigInt(2)));
  EXPECT_LT(Rational(-1), Rational(BigInt(-1), BigInt(2)));
  EXPECT_GT(Rational(2), Rational(BigInt(7), BigInt(4)));
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_EQ(Rational(BigInt(-3), BigInt(4)).to_string(), "-3/4");
  EXPECT_EQ(Rational(BigInt(8), BigInt(4)).to_string(), "2");
}

static_assert(sizeof(Rational) == 32);

// The inline integer paths (+ − × <=>) and the out-of-line fraction paths
// agree, also on numerators beyond int64 and on mixed operands.
TEST(Rational, IntegerPathsAgreeWithFractionArithmetic) {
  const BigInt big = BigInt(INT64_MAX) + BigInt(1);
  const Rational values[] = {
      Rational(0),          Rational(1),
      Rational(-7),         Rational(INT64_MAX),
      Rational(INT64_MIN),  Rational(big),
      Rational(-big * big), Rational(BigInt(-3), BigInt(4)),
      Rational(big, BigInt(3)),
  };
  // The cross-product formulas, through the normalizing constructor.
  const auto add = [](const Rational& a, const Rational& b) {
    return Rational(a.num() * b.den() + b.num() * a.den(), a.den() * b.den());
  };
  const auto mul = [](const Rational& a, const Rational& b) {
    return Rational(a.num() * b.num(), a.den() * b.den());
  };
  for (const Rational& a : values) {
    for (const Rational& b : values) {
      EXPECT_EQ(a + b, add(a, b)) << a.to_string() << " + " << b.to_string();
      EXPECT_EQ(a - b, add(a, -b)) << a.to_string() << " - " << b.to_string();
      EXPECT_EQ(a * b, mul(a, b)) << a.to_string() << " * " << b.to_string();
      EXPECT_EQ(a < b, a.num() * b.den() < b.num() * a.den())
          << a.to_string() << " < " << b.to_string();
      EXPECT_EQ(a == b, a.num() == b.num() && a.den() == b.den());
    }
  }
}

// Field axioms on random values.
class RationalProperty : public ::testing::TestWithParam<int> {};

TEST_P(RationalProperty, FieldAxioms) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<std::int64_t> dist(-50, 50);
  auto rand_rational = [&] {
    std::int64_t d = 0;
    while (d == 0) d = dist(rng);
    return Rational(BigInt(dist(rng)), BigInt(d));
  };
  for (int i = 0; i < 100; ++i) {
    const Rational a = rand_rational();
    const Rational b = rand_rational();
    const Rational c = rand_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + (-a), Rational(0));
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.reciprocal(), Rational(1));
      EXPECT_EQ(b / a * a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalProperty, ::testing::Values(7, 11, 13));

}  // namespace
}  // namespace advocat::util
