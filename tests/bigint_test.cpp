// BigInt: exact arbitrary-precision arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bigint.hpp"

namespace advocat::util {
namespace {

TEST(BigInt, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).to_string(), "0");
  EXPECT_EQ(BigInt(1).to_string(), "1");
  EXPECT_EQ(BigInt(-1).to_string(), "-1");
  EXPECT_EQ(BigInt(1234567890123456789LL).to_string(), "1234567890123456789");
  EXPECT_EQ(BigInt(INT64_MIN).to_string(), "-9223372036854775808");
}

TEST(BigInt, FromString) {
  EXPECT_EQ(BigInt::from_string("0"), BigInt(0));
  EXPECT_EQ(BigInt::from_string("-42"), BigInt(-42));
  EXPECT_EQ(BigInt::from_string("+42"), BigInt(42));
  const BigInt big = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ(big.to_string(), "123456789012345678901234567890");
  EXPECT_FALSE(big.fits_int64());
  EXPECT_THROW(BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("12a"), std::invalid_argument);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_string("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).to_string(), "4294967296");
  const BigInt b = BigInt::from_string("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).to_string(), "18446744073709551616");
}

TEST(BigInt, SignedArithmetic) {
  EXPECT_EQ(BigInt(5) + BigInt(-7), BigInt(-2));
  EXPECT_EQ(BigInt(-5) + BigInt(7), BigInt(2));
  EXPECT_EQ(BigInt(-5) - BigInt(-7), BigInt(2));
  EXPECT_EQ(BigInt(5) * BigInt(-7), BigInt(-35));
  EXPECT_EQ(BigInt(-5) * BigInt(-7), BigInt(35));
  EXPECT_EQ(BigInt(0) * BigInt(-7), BigInt(0));
  EXPECT_FALSE((BigInt(0)).is_negative());
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_THROW(BigInt(1) / BigInt(0), std::domain_error);
}

TEST(BigInt, MultiLimbDivision) {
  const BigInt a = BigInt::from_string("340282366920938463463374607431768211456");  // 2^128
  const BigInt b = BigInt::from_string("18446744073709551616");                    // 2^64
  EXPECT_EQ((a / b).to_string(), "18446744073709551616");
  EXPECT_EQ((a % b).to_string(), "0");
  const BigInt c = a + BigInt(12345);
  EXPECT_EQ((c % b), BigInt(12345));
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-5), BigInt(-2));
  EXPECT_GT(BigInt::from_string("100000000000000000000"), BigInt(INT64_MAX));
  EXPECT_LT(BigInt::from_string("-100000000000000000000"), BigInt(INT64_MIN));
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(7), BigInt(0)), BigInt(7));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigInt, ToInt64Bounds) {
  EXPECT_EQ(BigInt(INT64_MAX).to_int64(), INT64_MAX);
  EXPECT_EQ(BigInt(INT64_MIN).to_int64(), INT64_MIN);
  const BigInt over = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(over.fits_int64());
  EXPECT_THROW((void)over.to_int64(), std::overflow_error);
  // -2^63 fits, -2^63-1 does not.
  EXPECT_TRUE((-over).fits_int64());
  EXPECT_FALSE((-over - BigInt(1)).fits_int64());
}

// Property sweep: arithmetic agrees with int64 on random small values.
class BigIntRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(BigIntRandomProperty, MatchesInt64Semantics) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<std::int64_t> dist(-1'000'000'000LL,
                                                   1'000'000'000LL);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t x = dist(rng);
    const std::int64_t y = dist(rng);
    EXPECT_EQ((BigInt(x) + BigInt(y)).to_int64(), x + y);
    EXPECT_EQ((BigInt(x) - BigInt(y)).to_int64(), x - y);
    EXPECT_EQ((BigInt(x) * BigInt(y)).to_int64(), x * y);
    if (y != 0) {
      EXPECT_EQ((BigInt(x) / BigInt(y)).to_int64(), x / y);
      EXPECT_EQ((BigInt(x) % BigInt(y)).to_int64(), x % y);
    }
    EXPECT_EQ(BigInt(x) < BigInt(y), x < y);
  }
}

// Property: (a*b)/b == a and (a/b)*b + a%b == a on multi-limb values.
TEST_P(BigIntRandomProperty, DivModRoundTrip) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::uniform_int_distribution<std::int64_t> dist(-1'000'000'000LL,
                                                   1'000'000'000LL);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt(dist(rng)) * BigInt(dist(rng)) * BigInt(dist(rng));
    BigInt b = BigInt(dist(rng)) * BigInt(dist(rng));
    if (b.is_zero()) continue;
    EXPECT_EQ((a * b) / b, a);
    EXPECT_EQ((a / b) * b + (a % b), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomProperty,
                         ::testing::Values(1, 2, 3, 42, 12345));

// ---- small/heap boundary fuzz -------------------------------------------
//
// The dual representation promotes to heap limbs exactly when a value
// leaves [INT64_MIN, INT64_MAX] and demotes when a result re-enters it, so
// the most error-prone inputs are the ones hugging ±2^63. Fuzz add / sub /
// mul / compare / gcd with operands a few steps either side of the
// boundary against a __int128 reference, and assert the canonical-form
// invariant (fits_int64() ⟺ the value is in int64 range) on every result.

std::string i128_to_string(__int128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  unsigned __int128 mag =
      neg ? ~static_cast<unsigned __int128>(v) + 1
          : static_cast<unsigned __int128>(v);
  std::string digits;
  while (mag != 0) {
    digits += static_cast<char>('0' + static_cast<int>(mag % 10));
    mag /= 10;
  }
  if (neg) digits += '-';
  return {digits.rbegin(), digits.rend()};
}

void expect_matches_i128(const BigInt& got, __int128 want,
                         const char* what) {
  EXPECT_EQ(got.to_string(), i128_to_string(want)) << what;
  constexpr __int128 kMin = INT64_MIN;
  constexpr __int128 kMax = INT64_MAX;
  EXPECT_EQ(got.fits_int64(), want >= kMin && want <= kMax)
      << what << ": canonical-form invariant broken for "
      << i128_to_string(want);
}

TEST_P(BigIntRandomProperty, BoundaryFuzzAroundTwoPow63) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  // Anchors at the representation boundary and zero; offsets keep the
  // operands within a few steps of an anchor.
  const std::int64_t anchors[] = {INT64_MIN,     INT64_MIN + 1,
                                  INT64_MIN / 2, -1,
                                  0,             1,
                                  INT64_MAX / 2, INT64_MAX - 1,
                                  INT64_MAX};
  std::uniform_int_distribution<std::size_t> pick(0, std::size(anchors) - 1);
  std::uniform_int_distribution<std::int64_t> off(-3, 3);
  auto draw = [&]() -> std::int64_t {
    const std::int64_t base = anchors[pick(rng)];
    const std::int64_t delta = off(rng);
    // Saturate instead of overflowing the draw itself; the arithmetic
    // under test still crosses the boundary because the anchors sit on it.
    if (delta > 0 && base > INT64_MAX - delta) return INT64_MAX;
    if (delta < 0 && base < INT64_MIN - delta) return INT64_MIN;
    return base + delta;
  };
  for (int i = 0; i < 400; ++i) {
    const std::int64_t x = draw();
    const std::int64_t y = draw();
    const __int128 xw = x;
    const __int128 yw = y;
    expect_matches_i128(BigInt(x) + BigInt(y), xw + yw, "add");
    expect_matches_i128(BigInt(x) - BigInt(y), xw - yw, "sub");
    expect_matches_i128(BigInt(x) * BigInt(y), xw * yw, "mul");
    EXPECT_EQ(BigInt(x) < BigInt(y), x < y);
    EXPECT_EQ(BigInt(x) == BigInt(y), x == y);
    // gcd reference in unsigned space (|INT64_MIN| overflows int64).
    unsigned __int128 a = xw < 0 ? static_cast<unsigned __int128>(-xw)
                                 : static_cast<unsigned __int128>(xw);
    unsigned __int128 b = yw < 0 ? static_cast<unsigned __int128>(-yw)
                                 : static_cast<unsigned __int128>(yw);
    while (b != 0) {
      const unsigned __int128 t = a % b;
      a = b;
      b = t;
    }
    expect_matches_i128(BigInt::gcd(BigInt(x), BigInt(y)),
                        static_cast<__int128>(a), "gcd");
  }
}

TEST(BigInt, BoundaryPromoteDemoteRoundTrip) {
  // Crossing the boundary and coming back must land in the small form.
  const BigInt max(INT64_MAX);
  const BigInt min(INT64_MIN);
  const BigInt over = max + BigInt(1);    // 2^63: heap form
  EXPECT_FALSE(over.fits_int64());
  EXPECT_TRUE((over - BigInt(1)).fits_int64());
  EXPECT_EQ(over - BigInt(1), max);
  EXPECT_TRUE((-over).fits_int64());      // -2^63 == INT64_MIN: small form
  EXPECT_EQ(-over, min);
  EXPECT_FALSE((min - BigInt(1)).fits_int64());
  EXPECT_EQ(min - BigInt(1) + BigInt(1), min);
  EXPECT_EQ(min * BigInt(-1), over);
  EXPECT_EQ(over / BigInt(-1), min);
  EXPECT_EQ(min.abs(), over);
  EXPECT_EQ(BigInt::gcd(min, min), over) << "gcd is the (positive) 2^63";
}

// ---- two-word layout ------------------------------------------------------
//
// A BigInt is one int64 plus one owning pointer to a heap record, and the
// form stays canonical through every operator, copy, move and assignment.

static_assert(sizeof(BigInt) == 16);

// By value: a cached static would hold heap bytes the gauge tests count.
BigInt two_pow_63() { return BigInt::from_string("9223372036854775808"); }

TEST(BigIntLayout, RoundTripsAtTheBoundary) {
  const struct {
    const char* text;
    bool small;
  } cases[] = {
      {"-9223372036854775808", true},   // INT64_MIN
      {"-9223372036854775809", false},  // INT64_MIN - 1
      {"9223372036854775806", true},    // INT64_MAX - 1
      {"9223372036854775807", true},    // INT64_MAX
      {"9223372036854775808", false},   // INT64_MAX + 1 == 2^63
      {"-9223372036854775807", true},   // -INT64_MAX
  };
  for (const auto& c : cases) {
    const BigInt v = BigInt::from_string(c.text);
    EXPECT_EQ(v.to_string(), c.text);
    EXPECT_EQ(v.fits_int64(), c.small) << c.text;
    const BigInt copy = v;
    BigInt moved_into = BigInt(v);
    EXPECT_EQ(copy, v) << c.text;
    EXPECT_EQ(moved_into, v) << c.text;
    EXPECT_EQ(BigInt::from_string(v.to_string()), v) << c.text;
    EXPECT_EQ(-(-v), v) << c.text;
  }
  EXPECT_EQ(BigInt(INT64_MIN).to_int64(), INT64_MIN);
  EXPECT_EQ(BigInt(INT64_MAX).to_int64(), INT64_MAX);
  EXPECT_THROW((void)two_pow_63().to_int64(), std::overflow_error);
  EXPECT_EQ(BigInt(INT64_MAX) + BigInt(1), two_pow_63());
  EXPECT_EQ(BigInt(INT64_MIN) - BigInt(1) + BigInt(1), BigInt(INT64_MIN));
}

TEST(BigIntLayout, EveryOperatorDemotesAndPromotes) {
  const std::uint64_t start = BigInt::heap_bytes_in_use();
  {
    const BigInt big = two_pow_63();                      // heap
    const BigInt bigger = big * BigInt(2);                // 2^64, heap
    EXPECT_FALSE(bigger.fits_int64());
    // heap -> small
    EXPECT_TRUE((big + BigInt(-1)).fits_int64());         // INT64_MAX
    EXPECT_EQ(big + BigInt(-1), BigInt(INT64_MAX));
    EXPECT_TRUE((big - BigInt(1)).fits_int64());
    EXPECT_TRUE((big * BigInt(-1)).fits_int64());         // INT64_MIN
    EXPECT_EQ(big * BigInt(-1), BigInt(INT64_MIN));
    EXPECT_TRUE((big * BigInt(0)).fits_int64());
    EXPECT_TRUE((bigger / BigInt(4)).fits_int64());       // 2^62
    EXPECT_EQ(bigger / BigInt(4), BigInt(std::int64_t{1} << 62));
    EXPECT_TRUE((bigger % BigInt(7)).fits_int64());       // 2^64 mod 7 == 2
    EXPECT_EQ(bigger % BigInt(7), BigInt(2));
    EXPECT_TRUE((bigger - bigger).fits_int64());
    EXPECT_TRUE((bigger - bigger).is_zero());
    // small -> heap
    EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).fits_int64());
    EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).fits_int64());
    EXPECT_FALSE((BigInt(INT64_MIN) * BigInt(-1)).fits_int64());
    EXPECT_FALSE((BigInt(INT64_MIN) / BigInt(-1)).fits_int64());
    EXPECT_EQ(BigInt(INT64_MIN) % BigInt(-1), BigInt(0));
    EXPECT_FALSE((-BigInt(INT64_MIN)).fits_int64());

    // The compound assignments, both directions.
    BigInt a = BigInt(INT64_MAX);
    a += BigInt(1);
    EXPECT_FALSE(a.fits_int64());
    a += BigInt(-1);
    EXPECT_TRUE(a.fits_int64());
    EXPECT_EQ(a, BigInt(INT64_MAX));
    a -= BigInt(-1);
    EXPECT_FALSE(a.fits_int64());
    a -= BigInt(1);
    EXPECT_TRUE(a.fits_int64());
    a = BigInt(INT64_MIN);
    a *= BigInt(-1);
    EXPECT_FALSE(a.fits_int64());
    a *= BigInt(-1);
    EXPECT_TRUE(a.fits_int64());
    EXPECT_EQ(a, BigInt(INT64_MIN));
    a /= BigInt(-1);
    EXPECT_FALSE(a.fits_int64());
    a /= BigInt(2);
    EXPECT_TRUE(a.fits_int64());
    EXPECT_EQ(a, BigInt(std::int64_t{1} << 62));

    // Copy and move assignment, every pairing of the two forms.
    BigInt c = BigInt(5);
    c = big;                              // small <- heap (copy)
    EXPECT_EQ(c, big);
    c = BigInt(7);                        // heap <- small (move)
    EXPECT_TRUE(c.fits_int64());
    EXPECT_EQ(c, BigInt(7));
    c = bigger;                           // small <- heap (copy)
    c = big;                              // heap <- heap (copy)
    EXPECT_EQ(c, big);
    const BigInt seven(7);
    c = seven;                            // heap <- small (copy)
    EXPECT_TRUE(c.fits_int64());
    EXPECT_EQ(c, seven);
    c = BigInt(bigger);                   // small <- heap (move)
    EXPECT_EQ(c, bigger);
    c = BigInt(big);                      // heap <- heap (move)
    EXPECT_EQ(c, big);
    EXPECT_NE(c, bigger);
    EXPECT_NE(c, BigInt(0));
  }
  EXPECT_EQ(BigInt::heap_bytes_in_use(), start);
}

TEST(BigIntLayout, MovedFromValueIsReusable) {
  const std::uint64_t start = BigInt::heap_bytes_in_use();
  {
    BigInt heap = two_pow_63() * BigInt(3);
    const BigInt taken = std::move(heap);
    EXPECT_EQ(taken, two_pow_63() * BigInt(3));
    // NOLINTBEGIN(bugprone-use-after-move) the moved-from state is the
    // subject under test.
    heap = BigInt(11);
    EXPECT_EQ(heap + BigInt(1), BigInt(12));
    heap = taken;
    EXPECT_EQ(heap, taken);
    BigInt small = BigInt(-4);
    BigInt other = std::move(small);
    small = two_pow_63();
    small += BigInt(-1);
    EXPECT_EQ(small, BigInt(INT64_MAX));
    EXPECT_EQ(other, BigInt(-4));
    BigInt self = two_pow_63();
    BigInt& alias = self;
    self = std::move(alias);
    EXPECT_EQ(self, two_pow_63()) << "self-move keeps the value";
    self = alias;
    EXPECT_EQ(self, two_pow_63()) << "self-copy keeps the value";
    // NOLINTEND(bugprone-use-after-move)
  }
  EXPECT_EQ(BigInt::heap_bytes_in_use(), start);
}

TEST(BigIntLayout, HeapGaugeCountsTheWholeRecord) {
  const std::uint64_t start = BigInt::heap_bytes_in_use();
  {
    const BigInt big = two_pow_63();  // two limbs
    const std::uint64_t one = BigInt::heap_bytes_in_use() - start;
    // The record's header (sign and sizes) is counted with its limbs.
    EXPECT_GT(one, 2 * sizeof(std::uint32_t));
    const BigInt copy = big;
    const std::uint64_t two = BigInt::heap_bytes_in_use() - start;
    EXPECT_GT(two - one, 2 * sizeof(std::uint32_t));
    const BigInt demoted = big + BigInt(-1);  // written on the heap, freed
    EXPECT_TRUE(demoted.fits_int64());
    EXPECT_EQ(BigInt::heap_bytes_in_use() - start, two);
  }
  EXPECT_EQ(BigInt::heap_bytes_in_use(), start);
}

TEST(BigIntLayout, HeapGaugeReturnsAfterMixedCopiesAndMoves) {
  const std::uint64_t start = BigInt::heap_bytes_in_use();
  {
    std::vector<BigInt> values;
    BigInt acc = two_pow_63();
    for (int i = 0; i < 64; ++i) {
      values.push_back(acc);                // copy
      values.push_back(BigInt(i));          // small
      acc = acc * BigInt(3) - BigInt(i);    // grows on the heap
      if (i % 3 == 0) {
        BigInt moved = std::move(values[values.size() / 2]);  // move
        values.push_back(std::move(moved));
      }
    }
    EXPECT_GT(BigInt::heap_bytes_in_use(), start);
    std::vector<BigInt> copies = values;
    std::swap(copies[1], copies[copies.size() - 1]);
    values.erase(values.begin(), values.begin() + 20);
    copies = std::move(values);
    for (BigInt& v : copies) v = v / BigInt(INT64_MAX);
  }
  EXPECT_EQ(BigInt::heap_bytes_in_use(), start);
}

}  // namespace
}  // namespace advocat::util
