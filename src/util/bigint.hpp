// Arbitrary-precision signed integers with a small-value fast path.
//
// Gaussian elimination over the flow matrix (src/invariants) multiplies and
// adds rational coefficients whose numerators/denominators can outgrow any
// fixed-width type on large meshes, so exact verification needs
// arbitrary-precision arithmetic. Almost all coefficients that actually occur
// in flow encodings are tiny (±1, small queue capacities), so the
// representation is dual and two machine words wide:
//
//  - small form: the value lives inline in an int64 and the heap pointer is
//    null — arithmetic on small operands allocates nothing, and copying,
//    moving or destroying one is a couple of word moves;
//  - heap form: the pointer owns one allocation holding the sign and the
//    little-endian base-2^32 magnitude (the int64 word is then 0), used only
//    when the value does not fit in int64.
//
// The form is canonical: a value fits int64 if and only if it is stored in
// the small form (every operation demotes results that fit back inline).
// The special members and the small/small paths of + − × <=> == are inline;
// only the heap paths live in bigint.cpp. All operations are value-semantic.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>

namespace advocat::util {

class BigInt {
 public:
  BigInt() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) numeric literal convenience
  BigInt(std::int64_t v) : small_(v) {}

  // The special members keep the process-wide heap-bytes gauge
  // (heap_bytes_in_use) exact; small-form values test one pointer and never
  // touch it. A moved-from value is a valid BigInt (zero when it was in the
  // heap form, unchanged when it was small).
  BigInt(const BigInt& o)
      : small_(o.small_),
        big_(o.big_ != nullptr ? copy_heap(*o.big_) : nullptr) {}
  BigInt(BigInt&& o) noexcept
      : small_(o.small_), big_(std::exchange(o.big_, nullptr)) {}
  BigInt& operator=(const BigInt& o) {
    if (big_ == nullptr && o.big_ == nullptr) {
      small_ = o.small_;
    } else if (this != &o) {
      assign_heap(o);
    }
    return *this;
  }
  BigInt& operator=(BigInt&& o) noexcept {
    if (this != &o) {
      if (big_ != nullptr) free_heap(big_);
      small_ = o.small_;
      big_ = std::exchange(o.big_, nullptr);
    }
    return *this;
  }
  ~BigInt() {
    if (big_ != nullptr) free_heap(big_);
  }

  /// Parses a base-10 string with optional leading '-'. Throws
  /// std::invalid_argument on malformed input.
  static BigInt from_string(const std::string& s);

  [[nodiscard]] bool is_zero() const { return big_ == nullptr && small_ == 0; }
  [[nodiscard]] bool is_negative() const {
    return big_ != nullptr ? big_->negative : small_ < 0;
  }
  [[nodiscard]] bool is_one() const { return big_ == nullptr && small_ == 1; }

  /// Value as int64 if it fits; throws std::overflow_error otherwise.
  [[nodiscard]] std::int64_t to_int64() const;
  /// True exactly when the value is held in the inline small form (the
  /// representation is canonical, so this is also "fits in int64").
  [[nodiscard]] bool fits_int64() const { return big_ == nullptr; }

  [[nodiscard]] std::string to_string() const;

  BigInt operator-() const {
    if (big_ == nullptr && small_ != std::numeric_limits<std::int64_t>::min()) {
      return BigInt(-small_);
    }
    return negate_heap();
  }
  [[nodiscard]] BigInt abs() const;

  BigInt operator+(const BigInt& rhs) const {
    std::int64_t r = 0;
    if (big_ == nullptr && rhs.big_ == nullptr &&
        !__builtin_add_overflow(small_, rhs.small_, &r)) {
      return BigInt(r);
    }
    return add_heap(rhs);
  }
  BigInt operator-(const BigInt& rhs) const {
    std::int64_t r = 0;
    if (big_ == nullptr && rhs.big_ == nullptr &&
        !__builtin_sub_overflow(small_, rhs.small_, &r)) {
      return BigInt(r);
    }
    return add_heap(-rhs);
  }
  BigInt operator*(const BigInt& rhs) const {
    std::int64_t r = 0;
    if (big_ == nullptr && rhs.big_ == nullptr &&
        !__builtin_mul_overflow(small_, rhs.small_, &r)) {
      return BigInt(r);
    }
    return mul_heap(rhs);
  }
  /// Truncated division (C++ semantics: rounds toward zero).
  BigInt operator/(const BigInt& rhs) const;
  /// Remainder matching operator/ (same sign as dividend).
  BigInt operator%(const BigInt& rhs) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }
  BigInt& operator/=(const BigInt& rhs) { return *this = *this / rhs; }

  /// Compares values (never pointers): by canonicality a small and a heap
  /// value always differ.
  bool operator==(const BigInt& rhs) const {
    if (big_ == nullptr || rhs.big_ == nullptr) {
      return big_ == rhs.big_ && small_ == rhs.small_;
    }
    return compare_heap(rhs) == std::strong_ordering::equal;
  }
  std::strong_ordering operator<=>(const BigInt& rhs) const {
    if (big_ == nullptr && rhs.big_ == nullptr) return small_ <=> rhs.small_;
    return compare_heap(rhs);
  }

  static BigInt gcd(BigInt a, BigInt b);

  /// Number of base-2^32 limbs (0 for zero); used by tests and heuristics.
  /// Computed as-if for small-form values so the answer matches the heap
  /// representation of the same value.
  [[nodiscard]] std::size_t limb_count() const;

  [[nodiscard]] std::size_t hash() const;

  /// Debug builds count every heap-magnitude materialization produced by
  /// the arithmetic paths (the small-value fast path never touches it), so
  /// tests can assert that small-coefficient pivoting stays allocation-free.
  /// Always 0 in NDEBUG builds. The counter is process-global and relaxed;
  /// it is a diagnostic, not a synchronization point.
  static std::uint64_t debug_heap_allocations();
  static void debug_reset_heap_allocations();

  /// Live bytes held by heap-form records (record plus limb capacity)
  /// across every BigInt in the process, maintained in all build types
  /// (it feeds the solver's memory ceiling, see util::ResourceBudget).
  /// Relaxed process-global gauge: exact when read quiescently,
  /// monotonic-consistent enough for a ceiling check when read
  /// concurrently.
  static std::uint64_t heap_bytes_in_use();

 private:
  // A read-only view of a magnitude: little-endian base-2^32 limbs.
  using Mag = std::span<const std::uint32_t>;

  // The heap form is one allocation: this record with `capacity` limbs
  // right behind it, of which the first `size` hold the magnitude
  // (little-endian, no trailing zeros). Never zero-length, never a value
  // that fits int64 (both demote to the small form).
  struct Heap {
    std::uint32_t size;
    std::uint32_t capacity;
    bool negative;
    std::uint32_t* limbs() { return reinterpret_cast<std::uint32_t*>(this + 1); }
    const std::uint32_t* limbs() const {
      return reinterpret_cast<const std::uint32_t*>(this + 1);
    }
  };

  // Heap-record lifetime; every path keeps the gauge exact (it counts the
  // whole allocation: record plus limb capacity).
  static std::uint64_t heap_block_bytes(std::size_t capacity);
  static Heap* alloc_heap(std::size_t capacity);
  static Heap* copy_heap(const Heap& h);
  static void free_heap(Heap* h) noexcept;
  // Copy assignment with a heap form on either side (never self).
  void assign_heap(const BigInt& o);

  // The out-of-line paths of the inline operators: at least one operand is
  // in the heap form, or the small/small result overflowed int64.
  [[nodiscard]] BigInt negate_heap() const;
  [[nodiscard]] BigInt add_heap(const BigInt& rhs) const;
  [[nodiscard]] BigInt mul_heap(const BigInt& rhs) const;
  [[nodiscard]] std::strong_ordering compare_heap(const BigInt& rhs) const;

  /// The magnitude, viewed in place for the heap form and spilled into
  /// `buf` for the small form.
  [[nodiscard]] Mag mag(std::uint32_t (&buf)[2]) const;
  /// Builds a canonical BigInt from sign + magnitude, demoting to the small
  /// form whenever the value fits int64.
  static BigInt from_parts(bool negative, Mag mag);
  /// Canonicalizes a freshly written record (its first `n` limbs, trailing
  /// zeros allowed): a value that fits int64 comes back small and `h` is
  /// freed, any other keeps `h`.
  static BigInt adopt(Heap* h, std::size_t n, bool negative);

  std::int64_t small_ = 0;  // the value when big_ is null, else 0
  Heap* big_ = nullptr;     // owned; non-null only when the value does not
                            // fit int64
};

static_assert(sizeof(BigInt) == 16, "BigInt is one int64 plus one pointer");

}  // namespace advocat::util
