#include "util/bigint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/fault.hpp"

namespace advocat::util {

namespace {
using Mag = std::span<const std::uint32_t>;
using Limbs = std::vector<std::uint32_t>;

constexpr std::uint64_t kBase = 1ull << 32;
// Magnitude of INT64_MIN (2^63): the one int64 value whose negation needs
// the heap form.
constexpr std::uint64_t kInt64MinMag = 1ull << 63;
constexpr std::uint32_t kTwo63[2] = {0u, 0x80000000u};

#ifndef NDEBUG
std::atomic<std::uint64_t> g_heap_allocations{0};
#endif

// Live heap-record bytes across all BigInts (feeds the memory ceiling).
std::atomic<std::uint64_t> g_heap_bytes{0};

std::uint64_t abs_u64(std::int64_t v) {
  // Negate in unsigned space: well-defined for INT64_MIN.
  return v < 0 ? ~static_cast<std::uint64_t>(v) + 1
               : static_cast<std::uint64_t>(v);
}

Mag trimmed(Mag m) {
  while (!m.empty() && m.back() == 0) m = m.first(m.size() - 1);
  return m;
}

void trim(Limbs& mag) {
  while (!mag.empty() && mag.back() == 0) mag.pop_back();
}

// The int64 value of a sign and a trimmed magnitude, when it has one.
std::optional<std::int64_t> as_small(bool negative, Mag mag) {
  if (mag.size() > 2) return std::nullopt;
  std::uint64_t v = 0;
  if (!mag.empty()) v = mag[0];
  if (mag.size() == 2) v |= static_cast<std::uint64_t>(mag[1]) << 32;
  if (v < kInt64MinMag || (negative && v == kInt64MinMag)) {
    // Negate in the unsigned domain so the INT64_MIN magnitude wraps to
    // the right bits instead of overflowing.
    return static_cast<std::int64_t>(negative ? 0 - v : v);
  }
  return std::nullopt;
}

// Compares trimmed magnitudes.
int cmp_mag(Mag a, Mag b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// The magnitude helpers write into `out` and return the number of limbs
// written, trailing zeros included.

// `out` has room for max(|a|, |b|) + 1 limbs.
std::size_t add_mag(Mag a, Mag b, std::uint32_t* out) {
  const std::size_t n = std::max(a.size(), b.size());
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry == 0) return n;
  out[n] = static_cast<std::uint32_t>(carry);
  return n + 1;
}

// Requires |a| >= |b|. `out` has room for |a| limbs and may be a.data().
std::size_t sub_mag(Mag a, Mag b, std::uint32_t* out) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<std::uint32_t>(diff);
  }
  return a.size();
}

// `out` has room for |a| + |b| limbs and overlaps neither operand.
std::size_t mul_mag(Mag a, Mag b, std::uint32_t* out) {
  const std::size_t n = a.size() + b.size();
  std::fill(out, out + n, 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur =
          static_cast<std::uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  return n;
}

// Divides magnitude by magnitude; returns {quotient, remainder}.
std::pair<Limbs, Limbs> divmod_mag(Mag a, Mag b) {
  if (b.empty()) throw std::domain_error("BigInt: division by zero");
  if (cmp_mag(a, b) < 0) return {{}, Limbs(a.begin(), a.end())};
  if (b.size() == 1) {
    // Fast path: single-limb divisor.
    Limbs q(a.size());
    std::uint64_t rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | a[i];
      q[i] = static_cast<std::uint32_t>(cur / b[0]);
      rem = cur % b[0];
    }
    Limbs r;
    if (rem) r.push_back(static_cast<std::uint32_t>(rem));
    return {std::move(q), std::move(r)};
  }
  // Schoolbook long division, bit by bit. Slow but simple; divisor sizes in
  // the invariant engine stay small because rationals normalize by gcd.
  Limbs q(a.size(), 0);
  Limbs rem;
  for (std::size_t bit = a.size() * 32; bit-- > 0;) {
    // rem = rem*2 + bit(a, bit)
    std::uint32_t carry = 0;
    for (auto& limb : rem) {
      std::uint32_t next = limb >> 31;
      limb = (limb << 1) | carry;
      carry = next;
    }
    if (carry) rem.push_back(carry);
    if ((a[bit / 32] >> (bit % 32)) & 1u) {
      if (rem.empty()) rem.push_back(1u);
      else {
        std::uint64_t cur = static_cast<std::uint64_t>(rem[0]) + 1;
        rem[0] = static_cast<std::uint32_t>(cur);
        std::size_t k = 1;
        while (cur >> 32) {
          if (k == rem.size()) rem.push_back(0);
          cur = static_cast<std::uint64_t>(rem[k]) + 1;
          rem[k] = static_cast<std::uint32_t>(cur);
          ++k;
        }
      }
    }
    if (cmp_mag(rem, b) >= 0) {
      sub_mag(rem, b, rem.data());
      trim(rem);
      q[bit / 32] |= 1u << (bit % 32);
    }
  }
  return {std::move(q), std::move(rem)};
}
}  // namespace

std::uint64_t BigInt::heap_block_bytes(std::size_t capacity) {
  return sizeof(Heap) + capacity * sizeof(std::uint32_t);
}

BigInt::Heap* BigInt::alloc_heap(std::size_t capacity) {
  if (capacity > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("BigInt: magnitude too large");
  }
  const std::uint64_t bytes = heap_block_bytes(capacity);
  Heap* h = ::new (::operator new(bytes))
      Heap{0, static_cast<std::uint32_t>(capacity), false};
  g_heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return h;
}

BigInt::Heap* BigInt::copy_heap(const Heap& h) {
  Heap* copy = alloc_heap(h.size);
  std::copy_n(h.limbs(), h.size, copy->limbs());
  copy->size = h.size;
  copy->negative = h.negative;
  return copy;
}

void BigInt::free_heap(Heap* h) noexcept {
  const std::uint64_t bytes = heap_block_bytes(h->capacity);
  g_heap_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  ::operator delete(h, bytes);
}

void BigInt::assign_heap(const BigInt& o) {
  if (o.big_ == nullptr) {
    free_heap(std::exchange(big_, nullptr));
  } else if (big_ != nullptr && big_->capacity >= o.big_->size) {
    std::copy_n(o.big_->limbs(), o.big_->size, big_->limbs());
    big_->size = o.big_->size;
    big_->negative = o.big_->negative;
  } else {
    Heap* copy = copy_heap(*o.big_);
    if (big_ != nullptr) free_heap(big_);
    big_ = copy;
  }
  small_ = o.small_;
}

std::uint64_t BigInt::heap_bytes_in_use() {
  return g_heap_bytes.load(std::memory_order_relaxed);
}

std::uint64_t BigInt::debug_heap_allocations() {
#ifndef NDEBUG
  return g_heap_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

void BigInt::debug_reset_heap_allocations() {
#ifndef NDEBUG
  g_heap_allocations.store(0, std::memory_order_relaxed);
#endif
}

BigInt::Mag BigInt::mag(std::uint32_t (&buf)[2]) const {
  if (big_ != nullptr) return {big_->limbs(), big_->size};
  const std::uint64_t v = abs_u64(small_);
  buf[0] = static_cast<std::uint32_t>(v & 0xffffffffu);
  buf[1] = static_cast<std::uint32_t>(v >> 32);
  return {buf, v == 0 ? 0u : buf[1] != 0 ? 2u : 1u};
}

BigInt BigInt::from_parts(bool negative, Mag mag) {
  mag = trimmed(mag);
  if (const auto v = as_small(negative, mag)) return BigInt(*v);
  Heap* h = alloc_heap(mag.size());
  std::copy(mag.begin(), mag.end(), h->limbs());
  return adopt(h, mag.size(), negative);
}

BigInt BigInt::adopt(Heap* h, std::size_t n, bool negative) {
  const Mag mag = trimmed({h->limbs(), n});
  if (const auto v = as_small(negative, mag)) {
    free_heap(h);
    return BigInt(*v);
  }
  h->size = static_cast<std::uint32_t>(mag.size());
  h->negative = negative;
  BigInt r;
  r.big_ = h;
  // Latched (never thrown here): a mid-expression unwind could leave a
  // caller's row half-combined, so delivery waits for the solver's
  // cooperative cancellation point.
  fault::defer(fault::Site::kBigIntAlloc);
#ifndef NDEBUG
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
#endif
  return r;
}

BigInt BigInt::from_string(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("BigInt: empty string");
  std::size_t i = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
    if (s.size() == 1) throw std::invalid_argument("BigInt: sign only");
  }
  BigInt r;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') throw std::invalid_argument("BigInt: bad digit");
    r = r * BigInt(10) + BigInt(s[i] - '0');
  }
  if (neg) r = -r;
  return r;
}

std::int64_t BigInt::to_int64() const {
  if (big_ != nullptr) throw std::overflow_error("BigInt::to_int64");
  return small_;
}

std::string BigInt::to_string() const {
  if (big_ == nullptr) return std::to_string(small_);
  // Repeated division by 10^9 to produce decimal chunks.
  Limbs mag(big_->limbs(), big_->limbs() + big_->size);
  std::string out;
  while (!mag.empty()) {
    std::uint64_t rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<std::uint32_t>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    trim(mag);
    std::string chunk = std::to_string(rem);
    if (!mag.empty()) chunk.insert(0, 9 - chunk.size(), '0');
    out.insert(0, chunk);
  }
  if (big_->negative) out.insert(0, 1, '-');
  return out;
}

BigInt BigInt::negate_heap() const {
  // -INT64_MIN is 2^63, the one small value whose negation is heap form.
  if (big_ == nullptr) return from_parts(false, kTwo63);
  // A positive heap magnitude of exactly 2^63 demotes to INT64_MIN here.
  std::uint32_t buf[2];
  return from_parts(!big_->negative, mag(buf));
}

BigInt BigInt::abs() const {
  if (big_ == nullptr) return small_ < 0 ? -*this : *this;
  std::uint32_t buf[2];
  return from_parts(false, mag(buf));
}

BigInt BigInt::add_heap(const BigInt& rhs) const {
  // From operator-, both operands can be small: after a small/small
  // overflow, or when negating a heap 2^63 gave INT64_MIN.
  if (big_ == nullptr && rhs.big_ == nullptr) {
    std::int64_t r = 0;
    if (!__builtin_add_overflow(small_, rhs.small_, &r)) return BigInt(r);
  }
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  Mag a = mag(abuf);
  Mag b = rhs.mag(bbuf);
  bool neg = is_negative();
  if (neg == rhs.is_negative()) {
    Heap* h = alloc_heap(std::max(a.size(), b.size()) + 1);
    return adopt(h, add_mag(a, b, h->limbs()), neg);
  }
  const int c = cmp_mag(a, b);
  if (c == 0) return BigInt();
  if (c < 0) {
    std::swap(a, b);
    neg = !neg;
  }
  Heap* h = alloc_heap(a.size());
  return adopt(h, sub_mag(a, b, h->limbs()), neg);
}

BigInt BigInt::mul_heap(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigInt();
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  const Mag a = mag(abuf);
  const Mag b = rhs.mag(bbuf);
  Heap* h = alloc_heap(a.size() + b.size());
  return adopt(h, mul_mag(a, b, h->limbs()),
               is_negative() != rhs.is_negative());
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  if (rhs.is_zero()) throw std::domain_error("BigInt: division by zero");
  if (big_ == nullptr && rhs.big_ == nullptr) {
    // INT64_MIN / -1 is the only small/small quotient that overflows.
    if (!(small_ == std::numeric_limits<std::int64_t>::min() &&
          rhs.small_ == -1)) {
      return BigInt(small_ / rhs.small_);
    }
  }
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  const auto [q, rem] = divmod_mag(mag(abuf), rhs.mag(bbuf));
  return from_parts(is_negative() != rhs.is_negative(), q);
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  if (rhs.is_zero()) throw std::domain_error("BigInt: division by zero");
  if (big_ == nullptr && rhs.big_ == nullptr) {
    if (small_ == std::numeric_limits<std::int64_t>::min() &&
        rhs.small_ == -1) {
      return BigInt();  // quotient overflows but the remainder is exactly 0
    }
    return BigInt(small_ % rhs.small_);
  }
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  const auto [q, rem] = divmod_mag(mag(abuf), rhs.mag(bbuf));
  return from_parts(is_negative(), rem);
}

std::strong_ordering BigInt::compare_heap(const BigInt& rhs) const {
  const bool neg = is_negative();
  if (neg != rhs.is_negative())
    return neg ? std::strong_ordering::less : std::strong_ordering::greater;
  // By canonicality a heap magnitude is longer than, or differs from, any
  // small-form magnitude, so one comparison of the views decides.
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  int c = cmp_mag(mag(abuf), rhs.mag(bbuf));
  if (neg) c = -c;
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  if (a.big_ == nullptr && b.big_ == nullptr) {
    std::uint64_t x = abs_u64(a.small_);
    std::uint64_t y = abs_u64(b.small_);
    while (y != 0) {
      const std::uint64_t t = x % y;
      x = y;
      y = t;
    }
    if (x <= static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
      return BigInt(static_cast<std::int64_t>(x));
    }
    return from_parts(false, kTwo63);  // gcd(INT64_MIN, INT64_MIN)
  }
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt t = a % b;
    a = std::move(b);
    b = std::move(t);
  }
  return a;
}

std::size_t BigInt::limb_count() const {
  std::uint32_t buf[2];
  return mag(buf).size();
}

std::size_t BigInt::hash() const {
  // Hashes the limb representation, so a value hashes the same whichever
  // form holds it.
  std::size_t h = is_negative() ? 0x9e3779b97f4a7c15ull : 0;
  std::uint32_t buf[2];
  for (std::uint32_t limb : mag(buf)) h = h * 1099511628211ull + limb;
  return h;
}

}  // namespace advocat::util
