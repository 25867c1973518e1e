// Parallelism suite: validated env knobs, the fork/join helpers (the TSan
// hammer lives here), and the parallel capacity-probe scheduler against
// its sequential twin. A single solver check is always sequential; the
// parallelism left is coarse — concurrent probe sessions and fig4's
// position sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "advocat/verifier.hpp"
#include "coherence/mi_abstract.hpp"
#include "smt/solver.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace advocat {
namespace {

using smt::Backend;
using smt::SatResult;

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

TEST(EnvParsing, GarbageNegativeAndOverflowFallBack) {
  {
    ScopedEnv e("ADVOCAT_THREADS", "banana");
    EXPECT_EQ(util::env_threads(1), 1u);
  }
  {
    ScopedEnv e("ADVOCAT_THREADS", "12abc");  // trailing junk
    EXPECT_EQ(util::env_threads(2), 2u);
  }
  {
    ScopedEnv e("ADVOCAT_THREADS", "-4");
    EXPECT_EQ(util::env_threads(1), 1u);
  }
  {
    ScopedEnv e("ADVOCAT_THREADS", "99999999999999999999999");  // ERANGE
    EXPECT_EQ(util::env_threads(1), 1u);
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
    ScopedEnv e("ADVOCAT_THREADS", "0");  // below the 1-thread minimum
    EXPECT_EQ(util::env_threads(4), 1u);
  }
  {
    ScopedEnv e("ADVOCAT_THREADS", "100000");
    EXPECT_EQ(util::env_threads(1), 256u);
  }
  {
    ScopedEnv e("ADVOCAT_TEST_TIMEOUT_MS", "999999999");  // > one hour
    EXPECT_EQ(util::env_test_timeout_ms(0), 3'600'000u);
  }
}

TEST(EnvParsing, ValidAndUnsetValues) {
  {
    ScopedEnv e("ADVOCAT_THREADS", "8");
    EXPECT_EQ(util::env_threads(1), 8u);
  }
  {
    ScopedEnv e("ADVOCAT_THREADS", nullptr);
    EXPECT_EQ(util::env_threads(3), 3u);
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

  std::vector<std::atomic<int>> hits2(257);
  util::parallel_for_static(hits2.size(), 8,
                            [&](std::size_t i) { hits2[i].fetch_add(1); });
  for (const auto& h : hits2) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(util::parallel_for(
                   16, 4,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_THROW(util::parallel_for_static(
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
  for (const bool use_static : {false, true}) {
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
      if (use_static) {
        util::parallel_for_static(64, 8, cell);
      } else {
        util::parallel_for(64, 8, cell);
      }
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_EQ(std::string(e.what()).rfind("cell ", 0), 0u) << e.what();
    }
    EXPECT_EQ(caught, 1) << (use_static ? "static" : "dynamic");
    // All workers joined: every task that started also finished, and at
    // least one throwing cell ran.
    EXPECT_EQ(entered.load(), exited.load())
        << (use_static ? "static" : "dynamic");
    EXPECT_GE(entered.load(), 1);
    EXPECT_LE(entered.load(), 64);
  }
}

// ------------------------------------------------ parallel probe scheduler

TEST(ParallelSizing, ProbeThreadsAgreeWithSequentialAndAreDeterministic) {
  auto make = [](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    return std::move(coh::build_mi_abstract(config).net);
  };
  core::QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 16;
  o.verify.backend = Backend::Native;
  const core::QueueSizingResult seq = core::find_minimal_queue_size(make, o);

  o.probe_threads = 4;
  const core::QueueSizingResult par = core::find_minimal_queue_size(make, o);
  const core::QueueSizingResult par2 = core::find_minimal_queue_size(make, o);

  EXPECT_EQ(seq.minimal_capacity, 3u);  // the paper's 2x2 value
  EXPECT_EQ(par.minimal_capacity, 3u);
  EXPECT_EQ(par.unknown_probes, 0u);
  // Fixed thread count → identical probe sequence (capacities and
  // verdicts), run to run.
  EXPECT_EQ(par.probes, par2.probes);
  // Every accepted capacity rests on its own definite Unsat.
  for (const auto& [cap, verdict] : par.probes) {
    if (verdict == SatResult::Unsat) EXPECT_GE(cap, 3u);
    else EXPECT_LT(cap, 3u);
  }
}

}  // namespace
}  // namespace advocat
