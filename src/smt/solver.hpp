// Solver-facing interface.
//
// Two interchangeable backends implement it: Z3 (z3_solver.cpp, compiled
// only when libz3 is available) and the portable in-tree solver
// (native_solver.cpp, always available). make_solver() picks one at
// runtime; smtlib.hpp serializes assertion sets for external solvers.
//
// The interface is *incremental*: a solver is a live session with one
// contract — permanent assertions plus per-check assumptions. Assertions
// accumulate across check() calls and are never retracted;
// check_assuming() solves under temporary hypotheses that are retracted
// automatically when the call returns, and that is the only way to
// retract anything. Declarations (variables, and each backend's internal
// translation of expressions) are persistent, so repeated checks over the
// same expression DAG never pay the translation cost twice. This is what
// makes capacity probing (core::Verifier::probe_capacity) a sequence of
// assumption flips instead of a rebuild of the whole pipeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/expr.hpp"
#include "util/budget.hpp"

namespace advocat::smt {

enum class SatResult { Sat, Unsat, Unknown };

/// Cumulative search-effort counters for a solver session. The native
/// backend fills every field exactly; the Z3 backend maps what libz3's
/// statistics expose (the learned-clause fields stay 0 there — Z3 does not
/// report its clause database through the stable API). Counters are
/// *session-cumulative*: a snapshot taken after check k includes checks
/// 1..k, so per-check deltas are snapshot differences.
struct SolveStats {
  std::uint64_t conflicts = 0;     ///< conflicts analyzed (incl. theory/leaf)
  /// Native backend: where the conflicts came from. A clause conflict is a
  /// falsified clause; an interval conflict is explained either by the
  /// simplex's Farkas rows (`_farkas`, incl. bound crossings between two
  /// rows on one linear form) or, when the active rows are rationally
  /// feasible (an integer-only conflict), by every asserted atom above
  /// level 0 (`_integer`). The rest are refuted or degraded leaves.
  std::uint64_t conflicts_clause = 0;
  std::uint64_t conflicts_interval_farkas = 0;
  std::uint64_t conflicts_interval_integer = 0;
  /// Full boolean assignments handed to the integer leaf search, and the
  /// ones it refuted (each refutation becomes a blocking clause).
  std::uint64_t leaves_reached = 0;
  std::uint64_t leaves_refuted = 0;
  /// Mean literal count of the conflict sets handed to conflict analysis
  /// (clause, theory explanation or leaf blocking clause).
  double mean_conflict_lits = 0.0;
  std::uint64_t decisions = 0;     ///< branching decisions
  std::uint64_t propagations = 0;  ///< literals enqueued by propagation
  std::uint64_t restarts = 0;      ///< search restarts (Luby schedule)
  std::uint64_t learned_clauses = 0;  ///< clauses learned, cumulative
  std::uint64_t deleted_clauses = 0;  ///< learned clauses deleted, cumulative
  std::size_t learned_kept = 0;       ///< learned clauses live in the DB now
  /// Times a clause learned in an *earlier* check propagated or conflicted
  /// in a later one — the direct measure of refutation reuse across
  /// incremental probes (capacity sizing). 0 means the learned clauses are
  /// dead weight; the sizing loops show millions.
  std::uint64_t learned_hits = 0;
  /// Pivot steps performed by the exact simplex theory layer (native
  /// backend only; see docs/SOLVER.md). Stays 0 on workloads the interval
  /// theory decides alone — the simplex runs only where intervals are
  /// structurally weak (unbounded flow systems, degraded leaves).
  std::uint64_t theory_pivots = 0;
  /// Farkas infeasibility explanations the simplex layer produced; each
  /// one became a learned theory clause (or a conflict-directed backjump
  /// inside the integer leaf search).
  std::uint64_t farkas_explanations = 0;
  /// Bytes held by the search context's packed clause arena (gauge, like
  /// learned_kept: the size at the last check boundary, not a cumulative
  /// total). Native backend only.
  std::uint64_t arena_bytes = 0;
  /// Arena compactions performed, cumulative: mid-search GCs at
  /// reduction points (tombstones reclaimed, refs rewritten) plus the
  /// rebuild at check boundaries that had tombstones or tainted clauses.
  std::uint64_t arena_compactions = 0;
  /// Why the most recent check stopped early. kNone after a definite
  /// (Sat/Unsat) verdict; every Unknown carries a non-kNone reason — a
  /// degraded result is never silent (see docs/ROBUSTNESS.md).
  util::StopReason stop_reason = util::StopReason::kNone;
  /// High-water mark of arena_bytes across the session (gauge; native
  /// backend only). The live value can shrink at compactions, so the peak
  /// is what the memory ceiling and capacity planning care about.
  std::uint64_t peak_arena_bytes = 0;
};

/// mean_conflict_lits of two SolveStats blocks summed together: the mean
/// over both, weighted by their conflict counts.
inline double merged_mean_conflict_lits(const SolveStats& a,
                                        const SolveStats& b) {
  const std::uint64_t n = a.conflicts + b.conflicts;
  if (n == 0) return 0.0;
  return (a.mean_conflict_lits * static_cast<double>(a.conflicts) +
          b.mean_conflict_lits * static_cast<double>(b.conflicts)) /
         static_cast<double>(n);
}

/// An independently checkable refutation of one Unsat check. `text` is the
/// full certificate in the line-oriented grammar of docs/PROOFS.md: the
/// serialized problem clauses and theory-atom table, this check's
/// assumption units, and the stamped session trace of learned clauses
/// (RUP steps) and theory lemmas with inline Farkas/branch-and-cut
/// justifications, closed by `qed`. `advocat-check` (tools/) validates it
/// with zero dependencies on solver code.
struct Certificate {
  std::string text;       ///< the certificate body (see docs/PROOFS.md)
  std::string mode;       ///< "native", or "attested <backend>"
  bool complete = true;   ///< false when some ingredient could not be
                          ///< certified (reason says which); the checker
                          ///< will reject an incomplete certificate
  std::string reason;     ///< why complete is false ("" when complete)
  double proof_ms = 0.0;  ///< wall time spent certifying + serializing
  std::size_t proof_bytes = 0;  ///< text.size(), for BENCH_JSON tracking
};

/// Receives one Certificate per Unsat check. Install with
/// Solver::set_proof_sink *before the first check* — material learned
/// before the sink is attached cannot be reconstructed, so certificates
/// emitted after a mid-session attach are marked incomplete.
class ProofSink {
 public:
  virtual ~ProofSink() = default;
  virtual void on_unsat_certificate(const Certificate& cert) = 0;
};

[[nodiscard]] inline const char* to_string(SatResult r) {
  switch (r) {
    case SatResult::Sat: return "sat";
    case SatResult::Unsat: return "unsat";
    case SatResult::Unknown: return "unknown";
  }
  return "?";
}

/// Variable assignment extracted from a satisfiable check.
class Model {
 public:
  void set_int(const std::string& name, std::int64_t v) { ints_[name] = v; }
  void set_bool(const std::string& name, bool v) { bools_[name] = v; }

  /// Returns 0 / false for variables the solver left unconstrained.
  [[nodiscard]] std::int64_t int_value(const std::string& name) const;
  [[nodiscard]] bool bool_value(const std::string& name) const;

  [[nodiscard]] const std::unordered_map<std::string, std::int64_t>& ints() const { return ints_; }
  [[nodiscard]] const std::unordered_map<std::string, bool>& bools() const { return bools_; }

 private:
  std::unordered_map<std::string, std::int64_t> ints_;
  std::unordered_map<std::string, bool> bools_;
};

/// Incremental solver session. Backends implement the protected virtuals;
/// the public surface (check overloads, model storage, counters) is shared.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Asserts `assertion` permanently: it constrains every later check.
  /// Pass a formula to check_assuming() instead to make it retractable.
  virtual void add(ExprId assertion) = 0;

  /// Installs per-check resource ceilings (see util::ResourceBudget) for
  /// every subsequent check on this session; a default-constructed budget
  /// clears them. Exhausting any ceiling returns Unknown with the matching
  /// StopReason on solve_stats() — state stays consistent and the session
  /// remains usable. deadline_ms is a check's only wall-clock limit. The
  /// native backend enforces all fields; Z3 maps
  /// deadline/conflicts/propagations/memory onto its
  /// timeout/rlimit/max_memory parameters (best effort, same taxonomy).
  void set_budget(const util::ResourceBudget& budget) { budget_ = budget; }
  [[nodiscard]] const util::ResourceBudget& budget() const { return budget_; }

  /// Installs a proof sink: every subsequent Unsat check emits an
  /// independently checkable Certificate to it (see ProofSink). Pass
  /// nullptr to detach. Logging is off entirely while no sink is
  /// installed — the fast path stays untouched and SolveStats are
  /// bit-identical with and without a sink. Attach before the first
  /// check: certificates after a mid-session attach are marked
  /// incomplete. Default no-op for backends without proof support.
  virtual void set_proof_sink(ProofSink* sink) { proof_sink_ = sink; }

  /// Asynchronous cancellation: may be called from another thread while a
  /// check is in flight; the check returns Unknown(kCancelled) at its next
  /// cancellation point (bounded latency). The flag is one-shot — it is
  /// re-armed (cleared) when the *next* check starts, so a cancelled
  /// session stays fully reusable.
  virtual void cancel() { cancel_.store(true, std::memory_order_relaxed); }

  /// Checks all active assertions. The only wall-clock limit is
  /// budget().deadline_ms.
  SatResult check();
  /// Checks all active assertions conjoined with `assumptions`, which are
  /// retracted when the call returns (they never leak into later checks).
  /// Unsat means unsat *under these assumptions*.
  SatResult check_assuming(const std::vector<ExprId>& assumptions);

  /// Model of the most recent Sat check. Survives later non-Sat checks;
  /// throws std::logic_error when no check ever was Sat.
  [[nodiscard]] const Model& model() const;
  /// Whether any check so far returned Sat (i.e. model() is valid).
  [[nodiscard]] bool has_model() const { return has_model_; }

  /// Total check() calls on this session (instrumentation hook).
  [[nodiscard]] std::size_t num_checks() const { return num_checks_; }

  /// Session-cumulative search statistics (see SolveStats).
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }

 protected:
  /// Backend hook behind check() and check_assuming().
  virtual SatResult do_check(const std::vector<ExprId>& assumptions) = 0;
  /// Backends store each Sat model here.
  void store_model(Model m) {
    model_ = std::move(m);
    has_model_ = true;
  }
  /// Backends update their counters through this.
  [[nodiscard]] SolveStats& mutable_stats() { return stats_; }
  /// The live cancellation flag backends poll during a check. The shared
  /// check plumbing re-arms it at every check entry.
  [[nodiscard]] const std::atomic<bool>* cancel_flag() const {
    return &cancel_;
  }
  /// The installed proof sink (nullptr when none): backends emit each
  /// Unsat certificate here.
  [[nodiscard]] ProofSink* proof_sink() const { return proof_sink_; }

 private:
  Model model_;
  bool has_model_ = false;
  std::size_t num_checks_ = 0;
  SolveStats stats_;
  util::ResourceBudget budget_;
  std::atomic<bool> cancel_{false};
  ProofSink* proof_sink_ = nullptr;
};

/// Selects the solver implementation behind make_solver().
enum class Backend {
  Auto,    ///< Z3 when compiled in, otherwise the native solver.
  Native,  ///< In-tree CDCL(T) with an exact simplex leaf decision.
  Z3,      ///< libz3 (only when built with ADVOCAT_WITH_Z3).
};

[[nodiscard]] const char* to_string(Backend b);

/// Whether `b` can actually be instantiated in this build.
[[nodiscard]] bool backend_available(Backend b);

/// Creates a solver over `factory`'s expressions. The factory must outlive
/// the solver. Throws std::runtime_error for an unavailable backend.
std::unique_ptr<Solver> make_solver(const ExprFactory& factory,
                                    Backend backend = Backend::Auto);

/// Creates the Z3-backed solver over `factory`'s expressions. The factory
/// must outlive the solver. Throws std::runtime_error when this build has
/// no Z3 support.
std::unique_ptr<Solver> make_z3_solver(const ExprFactory& factory);

}  // namespace advocat::smt
