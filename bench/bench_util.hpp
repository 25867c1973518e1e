// Shared helpers for the experiment harnesses.
//
// Every binary prints the paper artifact it regenerates (paper value vs
// measured value). Defaults finish in seconds on one core; setting
// ADVOCAT_FULL=1 in the environment runs paper-scale instances.
//
// All wall-clock timing goes through util::Stopwatch (steady_clock), and
// every harness emits one machine-readable result line per scenario:
//
//   BENCH_JSON {"bench":"E3","capacity":2,"verdict":"deadlock",...}
//
// so result trajectories (BENCH_*.json) can be collected by grepping for
// the BENCH_JSON prefix.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "smt/solver.hpp"
#include "util/stopwatch.hpp"

namespace advocat::bench {

/// Normalized three-way verdict string for output and BENCH_JSON lines:
/// "free" (proven deadlock-free), "deadlock" (candidate found), "unknown"
/// (timeout or degraded search — NOT a deadlock and NOT a harness
/// failure; harnesses exit non-zero only on definite disagreement).
inline const char* verdict_string(smt::SatResult r) {
  switch (r) {
    case smt::SatResult::Unsat: return "free";
    case smt::SatResult::Sat: return "deadlock";
    case smt::SatResult::Unknown: return "unknown";
  }
  return "unknown";
}

/// Wall-clock timer for experiment phases.
using Timer = util::Stopwatch;

inline bool full_scale() { return std::getenv("ADVOCAT_FULL") != nullptr; }

/// CI smoke mode (ADVOCAT_SMOKE=1): cap every harness to its smallest
/// instances so a bench run finishes in seconds and still exercises the
/// incremental paths end to end. Wins over ADVOCAT_FULL.
inline bool smoke() { return std::getenv("ADVOCAT_SMOKE") != nullptr; }

inline void header(const char* id, const char* what) {
  std::printf("=== %s: %s ===\n", id, what);
  if (smoke()) {
    std::printf("(smoke mode: minimal instances for CI regression checks)\n");
  } else if (!full_scale()) {
    std::printf("(reduced instance sizes; set ADVOCAT_FULL=1 for "
                "paper-scale runs)\n");
  }
}

/// One-line JSON result builder. Values are numbers, booleans, or plain
/// strings (no embedded quotes/backslashes — true for everything the
/// harnesses emit).
class JsonLine {
 public:
  explicit JsonLine(const char* bench) {
    body_ = "{\"bench\":\"" + std::string(bench) + "\"";
  }

  JsonLine& field(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonLine& field(const char* key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& field(const char* key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& field(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& field(const char* key, const char* v) {
    // Built with append rather than operator+ chains: GCC 12's -Wrestrict
    // false-positives on the temporary-string insert path under -O2.
    std::string quoted;
    quoted.reserve(std::char_traits<char>::length(v) + 2);
    quoted += '"';
    quoted += v;
    quoted += '"';
    return raw(key, quoted);
  }
  JsonLine& field(const char* key, const std::string& v) {
    return field(key, v.c_str());
  }

  /// Emits the SolveStats counters under their canonical keys (used by
  /// collect_bench.sh's smoke-mode learned-clause regression guard).
  JsonLine& solver_stats(const smt::SolveStats& s) {
    return field("conflicts", static_cast<std::size_t>(s.conflicts))
        .field("conflicts_clause",
               static_cast<std::size_t>(s.conflicts_clause))
        .field("conflicts_interval_farkas",
               static_cast<std::size_t>(s.conflicts_interval_farkas))
        .field("conflicts_interval_integer",
               static_cast<std::size_t>(s.conflicts_interval_integer))
        .field("leaves_reached", static_cast<std::size_t>(s.leaves_reached))
        .field("leaves_refuted", static_cast<std::size_t>(s.leaves_refuted))
        .field("mean_conflict_lits", s.mean_conflict_lits)
        .field("decisions", static_cast<std::size_t>(s.decisions))
        .field("propagations", static_cast<std::size_t>(s.propagations))
        .field("restarts", static_cast<std::size_t>(s.restarts))
        .field("learned_clauses", static_cast<std::size_t>(s.learned_clauses))
        .field("deleted_clauses", static_cast<std::size_t>(s.deleted_clauses))
        .field("learned_kept", s.learned_kept)
        .field("learned_hits", static_cast<std::size_t>(s.learned_hits))
        .field("theory_pivots", static_cast<std::size_t>(s.theory_pivots))
        .field("farkas_explanations",
               static_cast<std::size_t>(s.farkas_explanations))
        .field("arena_bytes", static_cast<std::size_t>(s.arena_bytes))
        .field("arena_compactions",
               static_cast<std::size_t>(s.arena_compactions))
        .field("peak_arena_bytes",
               static_cast<std::size_t>(s.peak_arena_bytes))
        // "" after a definite verdict; a degraded run names its reason, so
        // an Unknown in a benchmark log is never silent.
        .field("stop_reason", util::to_string(s.stop_reason));
  }

  /// Prints `BENCH_JSON {...}` on its own line.
  void print() const { std::printf("BENCH_JSON %s}\n", body_.c_str()); }

 private:
  JsonLine& raw(const char* key, const std::string& value) {
    body_ += ",\"" + std::string(key) + "\":" + value;
    return *this;
  }

  std::string body_;
};

}  // namespace advocat::bench
