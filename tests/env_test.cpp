// Validated env knobs (util/env.hpp): garbage, negative and overflowing
// values fall back to the default, out-of-range values clamp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/env.hpp"

namespace advocat {
namespace {

/// Sets (or unsets, when value == nullptr) an environment variable for
/// one scope and restores the previous state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    if (value != nullptr) ::setenv(name, value, 1);
    else ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_) ::setenv(name_, old_.c_str(), 1);
    else ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

/// A knob read only by these tests, parsed as a count in [1, 256].
constexpr const char* kKnob = "ADVOCAT_ENV_PARSING_TEST";
unsigned knob(unsigned fallback) {
  return static_cast<unsigned>(util::env_uint(kKnob, fallback, 1, 256));
}

TEST(EnvParsing, GarbageNegativeAndOverflowFallBack) {
  {
    ScopedEnv e(kKnob, "banana");
    EXPECT_EQ(knob(1), 1u);
  }
  {
    ScopedEnv e(kKnob, "12abc");  // trailing junk
    EXPECT_EQ(knob(2), 2u);
  }
  {
    ScopedEnv e(kKnob, "-4");
    EXPECT_EQ(knob(1), 1u);
  }
  {
    ScopedEnv e(kKnob, "99999999999999999999999");  // ERANGE
    EXPECT_EQ(knob(1), 1u);
  }
  {
    ScopedEnv e("ADVOCAT_TEST_TIMEOUT_MS", "soon");
    EXPECT_EQ(util::env_test_timeout_ms(250), 250u);
  }
  {
    ScopedEnv e("ADVOCAT_TEST_TIMEOUT_MS", "-1");
    EXPECT_EQ(util::env_test_timeout_ms(250), 250u);
  }
}

TEST(EnvParsing, OutOfRangeValuesClamp) {
  {
    ScopedEnv e(kKnob, "0");  // below the minimum
    EXPECT_EQ(knob(4), 1u);
  }
  {
    ScopedEnv e(kKnob, "100000");
    EXPECT_EQ(knob(1), 256u);
  }
  {
    ScopedEnv e("ADVOCAT_TEST_TIMEOUT_MS", "999999999");  // > one hour
    EXPECT_EQ(util::env_test_timeout_ms(0), 3'600'000u);
  }
}

TEST(EnvParsing, ValidAndUnsetValues) {
  {
    ScopedEnv e(kKnob, "8");
    EXPECT_EQ(knob(1), 8u);
  }
  {
    ScopedEnv e(kKnob, nullptr);
    EXPECT_EQ(knob(3), 3u);
  }
  {
    ScopedEnv e("ADVOCAT_TEST_TIMEOUT_MS", "0");  // 0 = no timeout, valid
    EXPECT_EQ(util::env_test_timeout_ms(77), 0u);
  }
}

}  // namespace
}  // namespace advocat
