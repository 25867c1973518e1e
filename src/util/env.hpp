// Validated environment-variable parsing for the runtime knobs.
//
// The knobs (ADVOCAT_TEST_TIMEOUT_MS, ADVOCAT_AUDIT, ...) are read in
// several layers — solver, benches, test fixtures — so the validation
// lives here once: garbage, negative, and overflowing values are rejected
// with a one-line stderr warning and fall back to a sane default instead
// of feeding raw strtoul bits into std::chrono::milliseconds.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace advocat::util {

/// Parses environment variable `name` as a non-negative integer clamped
/// to [min, max]. Returns `fallback` (unclamped) when the variable is
/// unset; warns on stderr and returns `fallback` when the value is not a
/// number (garbage, trailing junk, negative); warns and clamps when it
/// parses but lies outside [min, max].
inline unsigned long env_uint(const char* name, unsigned long fallback,
                              unsigned long min_value,
                              unsigned long max_value) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < 0) {
    std::fprintf(stderr,
                 "advocat: ignoring %s=\"%s\" (expected an integer in "
                 "[%lu, %lu]); using %lu\n",
                 name, s, min_value, max_value, fallback);
    return fallback;
  }
  const auto u = static_cast<unsigned long long>(v);
  if (u < min_value || u > max_value) {
    const unsigned long clamped =
        u < min_value ? min_value : max_value;
    std::fprintf(stderr,
                 "advocat: clamping %s=%s to %lu (valid range [%lu, %lu])\n",
                 name, s, clamped, min_value, max_value);
    return clamped;
  }
  return static_cast<unsigned long>(u);
}

/// ADVOCAT_TEST_TIMEOUT_MS: global override for per-query test timeouts
/// (0 disables the timeout entirely; capped at one hour).
inline unsigned env_test_timeout_ms(unsigned fallback) {
  return static_cast<unsigned>(
      env_uint("ADVOCAT_TEST_TIMEOUT_MS", fallback, 0, 3'600'000));
}

// Build-time default for the solver invariant auditor (set by the
// ADVOCAT_AUDIT CMake option for debug builds); the environment variable
// of the same name always wins.
#ifndef ADVOCAT_AUDIT_DEFAULT
#define ADVOCAT_AUDIT_DEFAULT 0
#endif

/// ADVOCAT_AUDIT: when set (nonzero), the native solver runs deep
/// invariant audits over its own data structures at restarts, after
/// backjumps, and at check boundaries (see smt/audit.hpp and
/// docs/ANALYSIS.md). A violation aborts the process naming the broken
/// invariant. Expensive — meant for tests, fuzzing, and debugging.
inline bool env_audit() {
  return env_uint("ADVOCAT_AUDIT", ADVOCAT_AUDIT_DEFAULT, 0, 1) != 0;
}

}  // namespace advocat::util
