// Validated env knobs and the fork/join helper behind fig4's position
// sweep (the TSan hammer lives here). A single solver check and a single
// sizing run are always sequential; whole sizing runs side by side are
// the only parallelism left.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/env.hpp"
#include "util/parallel.hpp"

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

// ------------------------------------------------------------- env knobs

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

// ------------------------------------------------------ fork/join helpers

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(hits.size(), 8,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(util::parallel_for(
                   16, 4,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ParallelFor, ManyThrowingCellsJoinAllAndRethrowExactlyOne) {
  // The fig4 --position-threads sweep regression: several cells throwing
  // concurrently must produce exactly ONE rethrown exception on the
  // caller, after every worker joined — not a std::terminate, not a leaked
  // thread, not a second in-flight exception. Every entered task must also
  // leave (normally or by throw) before the helper returns; remaining
  // tasks may be skipped (early stop) but never half-run.
  std::atomic<int> entered{0};
  std::atomic<int> exited{0};
  const auto cell = [&](std::size_t i) {
    entered.fetch_add(1);
    struct Leave {
      std::atomic<int>& n;
      ~Leave() { n.fetch_add(1); }
    } leave{exited};
    if (i % 3 == 0) {  // 22 of 64 cells throw
      throw std::runtime_error("cell " + std::to_string(i));
    }
  };
  int caught = 0;
  try {
    util::parallel_for(64, 8, cell);
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_EQ(std::string(e.what()).rfind("cell ", 0), 0u) << e.what();
  }
  EXPECT_EQ(caught, 1);
  // All workers joined: every task that started also finished, and at
  // least one throwing cell ran.
  EXPECT_EQ(entered.load(), exited.load());
  EXPECT_GE(entered.load(), 1);
  EXPECT_LE(entered.load(), 64);
}

}  // namespace
}  // namespace advocat
