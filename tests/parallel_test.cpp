// PR6 parallel-solver suite: validated env knobs, the fork/join helpers,
// the sharded clause exchange (the TSan hammer lives here), determinism
// mode (same thread count twice → identical verdicts AND identical
// SolveStats), thread-count verdict agreement under differential fuzz,
// and the parallel capacity-probe scheduler against its sequential twin.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advocat/verifier.hpp"
#include "coherence/mi_abstract.hpp"
#include "smt/clause_exchange.hpp"
#include "smt/expr.hpp"
#include "smt/solver.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace advocat {
namespace {

using smt::Backend;
using smt::ExprFactory;
using smt::ExprId;
using smt::SatResult;
using smt::SolveStats;
using smt::make_solver;

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

// Pigeonhole principle PHP(p, h): Unsat for p > h and resolution-hard —
// PHP(8,7) costs a few thousand conflicts, comfortably past the parallel
// probe budget, so the cube/portfolio machinery genuinely engages.
std::vector<ExprId> pigeonhole(ExprFactory& f, int pigeons, int holes) {
  std::vector<ExprId> clauses;
  std::vector<std::vector<ExprId>> in(
      static_cast<std::size_t>(pigeons),
      std::vector<ExprId>(static_cast<std::size_t>(holes)));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)] =
          f.bool_var("pl_p" + std::to_string(p) + "h" + std::to_string(h));
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    clauses.push_back(f.or_(in[static_cast<std::size_t>(p)]));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        clauses.push_back(f.or_(
            {f.not_(in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
             f.not_(in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)])}));
      }
    }
  }
  return clauses;
}

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
  {
    ScopedEnv e("ADVOCAT_DETERMINISTIC", "1");
    EXPECT_TRUE(util::env_deterministic());
  }
  {
    ScopedEnv e("ADVOCAT_DETERMINISTIC", "0");
    EXPECT_FALSE(util::env_deterministic());
  }
  {
    ScopedEnv e("ADVOCAT_DETERMINISTIC", nullptr);
    EXPECT_FALSE(util::env_deterministic());
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

// -------------------------------------------------------- clause exchange

TEST(ClauseExchange, DrainSeesEachClauseOnceAndSkipsOwnShard) {
  smt::native::ClauseExchange x;
  EXPECT_TRUE(x.publish({2, 5}, /*source=*/0));
  EXPECT_TRUE(x.publish({4}, /*source=*/0));
  EXPECT_TRUE(x.publish({6, 9}, /*source=*/1));

  smt::native::ClauseExchange::Cursor cursor{};
  std::vector<smt::native::ClauseExchange::Lits> got;
  x.drain(cursor, got, /*skip_shard=*/0);  // worker 0: own shard skipped
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::int32_t>{6, 9}));

  got.clear();
  x.drain(cursor, got, /*skip_shard=*/0);  // nothing new
  EXPECT_TRUE(got.empty());

  x.publish({8}, /*source=*/1);
  got.clear();
  x.drain(cursor, got, /*skip_shard=*/0);  // only the new suffix
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::int32_t>{8}));

  // A fresh cursor with no skip sees everything exactly once.
  smt::native::ClauseExchange::Cursor all{};
  got.clear();
  x.drain(all, got);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(x.published(), 4u);
  EXPECT_EQ(x.dropped(), 0u);
}

TEST(ClauseExchange, ConcurrentPublishAndDrainIsRaceFree) {
  // The TSan target: publishers and drainers hammer the exchange
  // concurrently. Correctness here is no data race (TSan), no lost or
  // duplicated clause (counted after the join).
  smt::native::ClauseExchange x;
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 2000;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> drained_mid{0};
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&x, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        x.publish({p * kPerPublisher + i}, static_cast<unsigned>(p));
      }
    });
  }
  for (int d = 0; d < 3; ++d) {
    threads.emplace_back([&x, &drained_mid] {
      smt::native::ClauseExchange::Cursor cursor{};
      std::vector<smt::native::ClauseExchange::Lits> got;
      for (int round = 0; round < 50; ++round) x.drain(cursor, got);
      drained_mid.fetch_add(got.size());
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(x.published() + x.dropped(),
            static_cast<std::uint64_t>(kPublishers) * kPerPublisher);
  smt::native::ClauseExchange::Cursor cursor{};
  std::vector<smt::native::ClauseExchange::Lits> all;
  x.drain(cursor, all);
  EXPECT_EQ(all.size(), x.published());
}

// ----------------------------------------------------- determinism suite

SolveStats run_deterministic_php(unsigned threads, SatResult* verdict) {
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  solver->set_threads(threads);
  solver->set_deterministic(true);
  for (ExprId c : pigeonhole(f, 8, 7)) solver->add(c);
  *verdict = solver->check();
  return solver->solve_stats();
}

TEST(ParallelDeterminism, SameThreadCountTwiceIsBitIdentical) {
  // Determinism mode contract: for a fixed problem and thread count, two
  // runs give the same verdict AND the same SolveStats — the schedule is
  // a pure function of the input (static cube partition, no exchange, no
  // early cancellation).
  SatResult v1 = SatResult::Unknown;
  SatResult v2 = SatResult::Unknown;
  const SolveStats a = run_deterministic_php(8, &v1);
  const SolveStats b = run_deterministic_php(8, &v2);
  EXPECT_EQ(v1, SatResult::Unsat);
  EXPECT_EQ(v2, SatResult::Unsat);
  EXPECT_EQ(a.threads, 8u);
  EXPECT_GT(a.conflicts, 1000u) << "must outgrow the cube-probe budget so "
                                   "parallel workers actually ran";
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.learned_clauses, b.learned_clauses);
  EXPECT_EQ(a.learned_hits, b.learned_hits);
  EXPECT_EQ(a.theory_pivots, b.theory_pivots);
  // Determinism mode disables the exchange entirely.
  EXPECT_EQ(a.clauses_exported, 0u);
  EXPECT_EQ(a.clauses_imported, 0u);
}

TEST(ParallelDeterminism, ThreadCountsAgreeOnPigeonhole) {
  SatResult v1 = SatResult::Unknown;
  SatResult v8 = SatResult::Unknown;
  (void)run_deterministic_php(1, &v1);
  (void)run_deterministic_php(8, &v8);
  EXPECT_EQ(v1, SatResult::Unsat);
  EXPECT_EQ(v8, SatResult::Unsat);
}

TEST(ParallelDeterminism, PortfolioModeAgreesToo) {
  ScopedEnv mode("ADVOCAT_PARALLEL", "portfolio");
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  solver->set_threads(4);
  for (ExprId c : pigeonhole(f, 8, 7)) solver->add(c);
  EXPECT_EQ(solver->check(), SatResult::Unsat);
  // A satisfiable follow-up on the same session (drop one at-most-one
  // constraint by adding a fresh relaxed instance) keeps working.
  ExprFactory f2;
  auto solver2 = make_solver(f2, Backend::Native);
  solver2->set_threads(4);
  for (ExprId c : pigeonhole(f2, 7, 7)) solver2->add(c);
  EXPECT_EQ(solver2->check(), SatResult::Sat);
}

TEST(ParallelSolve, SatVerdictsCarryAConsistentModel) {
  // PHP(7,7) is satisfiable (a permutation); the parallel Sat model must
  // assign every pigeon a hole, no hole twice — whichever worker found it.
  ExprFactory f;
  auto solver = make_solver(f, Backend::Native);
  solver->set_threads(8);
  for (ExprId c : pigeonhole(f, 7, 7)) solver->add(c);
  ASSERT_EQ(solver->check(), SatResult::Sat);
  for (int p = 0; p < 7; ++p) {
    int holes = 0;
    for (int h = 0; h < 7; ++h) {
      holes += solver->model().bool_value("pl_p" + std::to_string(p) + "h" +
                                          std::to_string(h))
                   ? 1
                   : 0;
    }
    EXPECT_GE(holes, 1) << "pigeon " << p << " lost its hole";
  }
  for (int h = 0; h < 7; ++h) {
    int pigeons = 0;
    for (int p = 0; p < 7; ++p) {
      pigeons += solver->model().bool_value("pl_p" + std::to_string(p) + "h" +
                                            std::to_string(h))
                     ? 1
                     : 0;
    }
    EXPECT_LE(pigeons, 1) << "hole " << h << " double-booked";
  }
}

// --------------------------------------------- differential fuzz, N vs 1

TEST(ParallelDifferential, ThreadCountsAgreeOnRandomBoundedSessions) {
  // N=1 vs N=8 verdict agreement on random bounded-arithmetic sessions:
  // bounded domains keep the native solver complete, so both must return
  // the same definite verdict on every check. The 8-thread twin runs in
  // the default (non-deterministic) mode so the exchange and early
  // cancellation paths get fuzzed — and TSan'd — too.
  std::mt19937_64 master(20260808);
  int definite = 0;
  for (int round = 0; round < 40; ++round) {
    std::mt19937_64 rng(master());
    ExprFactory f;
    std::vector<ExprId> ivars, bvars;
    for (int i = 0; i < 4; ++i) {
      ivars.push_back(f.int_var("pf_x" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
      bvars.push_back(f.bool_var("pf_p" + std::to_string(i)));
    }
    std::uniform_int_distribution<int> coeff(-3, 3);
    std::uniform_int_distribution<int> constd(-8, 8);
    std::uniform_int_distribution<std::size_t> pick_i(0, ivars.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_b(0, bvars.size() - 1);
    std::function<ExprId(int)> formula = [&](int depth) -> ExprId {
      switch (std::uniform_int_distribution<int>(0, depth > 0 ? 5 : 1)(rng)) {
        case 0: {
          std::vector<ExprId> terms;
          const int n = std::uniform_int_distribution<int>(1, 3)(rng);
          for (int i = 0; i < n; ++i) {
            int c = coeff(rng);
            if (c == 0) c = 1;
            terms.push_back(f.mul_const(c, ivars[pick_i(rng)]));
          }
          const ExprId lhs = f.add(terms);
          const ExprId rhs = f.int_const(constd(rng));
          return (rng() & 1) != 0 ? f.le(lhs, rhs) : f.eq(lhs, rhs);
        }
        case 1: return bvars[pick_b(rng)];
        case 2: return f.not_(formula(depth - 1));
        case 3: return f.and_({formula(depth - 1), formula(depth - 1)});
        case 4: return f.or_({formula(depth - 1), formula(depth - 1)});
        default: return f.implies(formula(depth - 1), formula(depth - 1));
      }
    };
    auto seq = make_solver(f, Backend::Native);
    auto par = make_solver(f, Backend::Native);
    seq->set_threads(1);
    par->set_threads(8);
    auto add_all = [&](ExprId e) {
      seq->add(e);
      par->add(e);
    };
    for (ExprId v : ivars) {
      add_all(f.le(f.int_const(-6), v));
      add_all(f.le(v, f.int_const(6)));
    }
    // A couple of rounds mix in a hard pigeonhole block so the parallel
    // twin genuinely cubes; the rest stay light and fuzz the probe path.
    if (round % 16 == 0) {
      for (ExprId c : pigeonhole(f, 8, 7)) add_all(c);
    }
    const int asserts = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int i = 0; i < asserts; ++i) add_all(formula(3));
    const int checks = std::uniform_int_distribution<int>(2, 4)(rng);
    for (int i = 0; i < checks; ++i) {
      const ExprId a = formula(2);
      const SatResult rs = seq->check_assuming({a});
      const SatResult rp = par->check_assuming({a});
      if (rs != SatResult::Unknown && rp != SatResult::Unknown) {
        ASSERT_EQ(rs, rp) << "thread-count divergence, round " << round;
        ++definite;
      }
    }
  }
  EXPECT_GT(definite, 40) << "fuzz degenerated: too few definite verdicts";
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
