// Search engine of the native CDCL(T) solver.
//
// The solver keeps two halves:
//
//  - SharedProblem: the encoded problem — Tseitin variables, deduplicated
//    linear atoms with their static theory rows, problem clauses and
//    definitional units. Owned by NativeSolver, written only by
//    translation *between* checks, and read by the search, by
//    the session ProofLog and by the auditor.
//  - SearchContext: everything mutable — trail, watch lists, EVSIDS
//    activity heap, phase array, the learned-clause arena, interval
//    bounds with their bound log (provenance and undo in one), the
//    exact simplex theory state, and the ops/deadline polling. One
//    context lives for the solver session, so learned clauses persist
//    across checks.
//
// A SearchContext solves one CheckJob at a time: root assertions at level
// 0, then the per-check assumptions each on its own decision level, then
// CDCL(T) search.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "smt/clause_arena.hpp"
#include "smt/expr.hpp"
#include "smt/simplex_theory.hpp"
#include "smt/solver.hpp"
#include "smt/theory.hpp"
#include "util/rational.hpp"

namespace advocat::smt::native {

using Clock = std::chrono::steady_clock;

// Literal encoding: variable v -> positive literal 2v, negated 2v+1.
using Lit = std::int32_t;
inline Lit mk_lit(int v, bool negated) {
  return static_cast<Lit>(2 * v + (negated ? 1 : 0));
}
inline Lit neg(Lit l) { return l ^ 1; }
inline int var_of(Lit l) { return l >> 1; }
inline bool is_neg(Lit l) { return (l & 1) != 0; }

enum Val : std::int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

// Σ terms ≤ bound over integer-variable indices — the shared theory-seam
// row type (smt/theory.hpp).
using StaticRow = theory::Row;

// A theory atom Σ terms ≤ bound (translation turns an equality into a gate
// over two of these). Asserted true it activates `row`, asserted false its
// integer complement `negation`: −Σ terms ≤ −bound − 1. Both rows have
// the same sign-canonical linear form (Σ terms up to sign, leading
// coefficient positive); translation numbers those forms, and `form` is
// this atom's — the simplex keeps one slack per form id.
struct Atom {
  StaticRow row;
  StaticRow negation;
  int form = -1;
};

// One watch-list entry: the watching clause plus a *blocker* literal — a
// literal of the clause (usually the other watch at the time the entry was
// pushed) whose truth proves the clause satisfied without touching the
// clause words at all. Propagation checks the blocker first; only on a
// miss does it load the clause from the arena (the MiniSat trick that
// removes most cache misses from the hot loop).
struct Watcher {
  ClauseRef ref = kClauseRefUndef;
  Lit blocker = 0;
};

/// Problem clauses packed into one literal pool with a CSR-style offset
/// table — the read-only mirror of the search's clause arena. Append-only,
/// like everything else in SharedProblem.
class PackedClauses {
 public:
  void push(const std::vector<Lit>& lits) {
    pool_.insert(pool_.end(), lits.begin(), lits.end());
    off_.push_back(static_cast<std::uint32_t>(pool_.size()));
  }
  [[nodiscard]] std::size_t size() const { return off_.size() - 1; }
  [[nodiscard]] const Lit* begin(std::size_t i) const {
    return pool_.data() + off_[i];
  }
  [[nodiscard]] std::uint32_t len(std::size_t i) const {
    return off_[i + 1] - off_[i];
  }

 private:
  std::vector<Lit> pool_;
  std::vector<std::uint32_t> off_{0};
};

/// The encoded problem, read-only while a check runs. Append-only:
/// translation (between checks) grows it; nothing is ever removed or
/// reordered, so the search syncs by remembering how many clauses it has
/// already copied.
struct SharedProblem {
  int num_bvars = 0;
  int true_var = -1;
  std::vector<int> atom_of_var;             // bool var -> atom index or -1
  std::vector<int> atom_var;                // atom index -> bool var
  std::vector<std::vector<int>> atom_occ;   // int var -> atom indices
  // A deque keeps every atom's rows at a stable address while translation
  // appends: the search's active rows are row pointers.
  // No atom row is constant: le_atom, the only atom constructor, folds an
  // empty row into the true literal, so every row has a term.
  std::deque<Atom> atoms;
  std::vector<std::string> int_names;
  std::vector<std::pair<int, std::string>> named_bools;
  PackedClauses clauses;                    // problem clauses (size >= 2)
  std::vector<Lit> def_units;               // translation units
};

/// One check. All pointed-to data is owned by the orchestrating
/// NativeSolver and outlives the solve call.
struct CheckJob {
  const std::vector<Lit>* roots = nullptr;            ///< level-0 roots
  const std::vector<Lit>* assumption_lits = nullptr;  ///< prefix
  bool deadline_active = false;
  Clock::time_point deadline{};
  /// User-facing resource ceilings (conflicts/decisions/propagations/
  /// memory), polled at the cooperative cancellation point. Null when the
  /// session has no budget — the polls then cost one pointer test.
  const util::ResourceBudget* budget = nullptr;
  /// Session-level cancel() flag (Solver::cancel_flag), observed at the
  /// cancellation point with bounded latency.
  const std::atomic<bool>* cancel = nullptr;
};

class Auditor;
class ProofLog;

class SearchContext {
 public:
  explicit SearchContext(const SharedProblem& shared);

  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  /// Solves one job. Transient per-check state (deadline, ops counter,
  /// job pointers) is fully reset on every exit path — a timed-out check
  /// cannot leak a stale deadline into the next solve on this context.
  SatResult solve(const CheckJob& job);

  /// Model captured by the last Sat solve on this context.
  [[nodiscard]] const Model& model() const { return model_; }
  /// Cumulative counters over this context's lifetime.
  [[nodiscard]] const SolveStats& stats() const { return stats_; }
  /// Why the last solve() on this context stopped early (kNone after a
  /// definite Sat/Unsat); see util::StopReason.
  [[nodiscard]] util::StopReason stop_reason() const { return last_stop_; }
  /// Attaches (or detaches, with nullptr) a proof log: while set,
  /// non-tainted learned clauses and theory lemmas are recorded for
  /// certificate generation. Logging touches no SolveStats
  /// field and makes no search decision, so verdicts and stats are
  /// identical with and without a log.
  void set_proof_log(ProofLog* log) {
    plog_ = log;
    stx_.set_hints(log != nullptr);
  }

 private:
  // Read-only deep invariant checks under ADVOCAT_AUDIT (smt/audit.hpp).
  friend class Auditor;

  // ------------------------------------------------------------- plumbing
  void bump_ops();
  // Conflict/decision ceilings of job_->budget; throws util::Stop when one
  // is exhausted. Called where the counters advance (cheap compares).
  void check_search_budgets() const;
  // Memory ceiling: arena + BigInt heap + simplex pools vs the budget;
  // polled at a coarse cadence from bump_ops. Also maintains the
  // peak_arena_bytes gauge.
  void check_memory_ceiling();
  [[nodiscard]] Val value_lit(Lit l) const;
  [[nodiscard]] int current_level() const;
  bool enqueue(Lit l, int reason);
  void sync_problem();

  // ------------------------------------------------------------ propagate
  int propagate_bool();
  void set_bound(int v, bool is_hi, std::int64_t val, int ri);
  void rewind_blog(std::size_t mark);
  void activate_row(const StaticRow* r, int form, Lit cause);
  void deactivate_rows_to(std::size_t mark);
  bool scan_violated_row();
  bool simplex_refute();
  void explain_interval_conflict();
  void emit_simplex_conflict();
  bool propagate_rows();
  bool activate_theory();

  // ------------------------------------------- provenance explanations
  static int bnode(int v, bool is_hi) { return 2 * v + (is_hi ? 1 : 0); }
  [[nodiscard]] int entry_before(int node, int before) const;
  void expl_begin();
  void emit_row_atom(int ri, std::vector<Lit>& atoms_out);
  void expl_push(int e);
  void expl_run(std::vector<Lit>& atoms_out);
  // Appends the reason of entailed literal `l` (negated atoms, clause
  // form) to `out`, walking the bound log as it stood at propagation.
  void entailed_reason(Lit l, std::vector<Lit>& out);
  bool propagate_entailed_atoms();
  void clear_dirty();

  struct Conflict {
    enum Kind { kNone, kClause, kTheory } kind = kNone;
    int ci = -1;  // kClause only
  };
  Conflict propagate_all();
  // A row's activity on one side under the current bounds: Σ c·b over its
  // min-side bounds (lo for positive coefficients, hi for negative), or
  // its max-side ones, with the infinite bounds counted instead of summed.
  struct Activity {
    __int128 sum = 0;
    int ninf = 0;
  };
  [[nodiscard]] Activity activity(const StaticRow& r, bool max_side) const;
  // The bound term (v, c) of row r derives from the row's min activity
  // `min`, when it tightens v's current one before clamping: v's hi for
  // c > 0, its lo for c < 0.
  [[nodiscard]] std::optional<std::int64_t> derive_bound(
      const StaticRow& r, const Activity& min, int v, std::int64_t c) const;
  [[nodiscard]] int row_status(const StaticRow& r) const;
  [[nodiscard]] bool decide_phase_negated(int v) const;

  // ------------------------------------------------- activity heap (VSIDS)
  void heap_swap(std::size_t i, std::size_t j);
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  void heap_insert(int v);
  int heap_pop();
  void bump_var(int v);
  void bump_clause(ClauseRef ci);
  int pick_branch();

  // ----------------------------------------------------- levels, backjump
  struct LevelMark {
    std::size_t trail, rows, blog;
  };
  void push_level();
  void backjump(int target);

  // ------------------------------------------------- learning (first UIP)
  // Appends the negation of every atom literal on the trail to `out`; the
  // level-0 ones (permanent) only when `level0`.
  void collect_theory_lits(std::vector<Lit>& out, bool level0) const;
  // Conflict literals arrive as a raw span: clause conflicts point straight
  // into the arena (no copy), theory conflicts into theory_conflict_. The
  // span is consumed before any arena allocation can invalidate it.
  int analyze(const Lit* conflict, std::size_t nconf, ClauseRef conflict_ci,
              int& lbd_out);
  bool resolve_conflict(const Lit* conflict, std::size_t nconf, ClauseRef ci);
  // Records `clause`, valid on its own, as a theory lemma with `hint`, the
  // simplex's Farkas multiplier per literal, or none. No-op while no proof
  // log is attached.
  void log_theory_lemma(const std::vector<Lit>& clause,
                        const std::vector<util::Rational>& hint);
  void maybe_restart_or_reduce();
  void reduce_db();
  void compact_arena();

  // ---------------------------------------------------------- leaf search
  void capture_model(const std::vector<theory::Pin>& values);
  SatResult int_complete();

  // -------------------------------------------------------- check driving
  void reset_search();
  [[nodiscard]] SatResult finish_unsat() const;
  SatResult run_check();

  const SharedProblem& sh_;

  // Clause database (persists across solve() calls on this context): one
  // packed arena addressed by 32-bit refs; see clause_arena.hpp.
  ClauseArena arena_;
  std::size_t clauses_synced_ = 0;  // prefix of sh_.clauses already copied
  std::vector<Lit> learned_units_;  // permanent learned unit consequences
  std::size_t num_learned_live_ = 0;
  std::size_t num_tainted_ = 0;
  bool arena_has_tombstones_ = false;
  std::size_t num_reductions_ = 0;

  // Search state (reset — but not reallocated — by reset_search()).
  std::vector<Val> assign_;
  std::vector<int> reason_;             // var -> clause ref / kReason*
  std::vector<int> level_;              // var -> decision level
  std::vector<std::vector<Watcher>> watches_;  // literal -> watchers
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t theory_head_ = 0;
  std::vector<LevelMark> levels_;
  std::vector<Lit> assume_q_;    // this check's assumptions
  int prefix_placed_ = 0;        // prefix literals placed (1:1 with levels)
  int prefix_levels_ = 0;        // levels occupied by the placed prefix
  // Interval bounds: each is the `val` of its bound node's latest log
  // entry (blog_ below), or ∓∞ when the node has none.
  std::vector<std::int64_t> lo_, hi_;
  std::vector<const StaticRow*> active_rows_;
  std::vector<Lit> active_row_lit_;  // activating atom literal, per row
  std::vector<std::size_t> row_stx_mark_;  // simplex trail mark, per row
  std::vector<std::vector<int>> row_occ_;  // int var -> active row indices
  std::vector<int> row_work_;
  // The lowest level at which propagate_rows stopped on its budget, short
  // of the fixpoint, or -1; a backjump below it and reset_search clear
  // it. Read only by the auditor, which checks the fixpoint only while it
  // is -1.
  int cut_level_ = -1;
  std::vector<Val> polarity_;    // saved phases
  std::vector<int> dirty_vars_;  // int vars with bound changes to rescan
  std::vector<std::uint64_t> dirty_stamp_;
  std::uint64_t dirty_gen_ = 1;
  std::vector<std::uint64_t> scan_stamp_;  // atom index -> last scan
  std::uint64_t scan_gen_ = 0;
  bool saw_unknown_ = false;

  // Exact theory layer (tableau, basis and slack dedup persist with the
  // context — the incremental half of the simplex). Its bounds follow the
  // trail: exactly the active rows are asserted, tagged by row index.
  SimplexTheory stx_;
  std::vector<int> sconf_rows_;  // pending simplex conflict: row indices
  // Its Farkas multiplier per row, while a proof log is attached and one
  // combination refutes.
  std::vector<util::Rational> sconf_mults_;

  // CDCL working state.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::vector<int> heap_;      // activity max-heap of variables
  std::vector<int> heap_pos_;  // var -> heap index or -1
  // Analysis scratch: seen_ is all 0 outside analyze(); to_clear_ lists
  // the vars it set, so reset_search can clear it after a stop inside.
  std::vector<char> seen_;
  std::vector<int> to_clear_;
  std::vector<Lit> learnt_;
  std::vector<Lit> theory_conflict_;
  std::vector<int> lbd_levels_;
  ProofLog* plog_ = nullptr;  // proof trace, nullptr = logging off
  std::vector<Lit> reason_scratch_;  // a reason or lemma clause being built
  std::vector<int> reduce_order_;
  // Provenance-explanation machinery (see the .cpp section comment). The
  // bound log is also the bounds' undo log: rewinding an entry restores
  // its node's bound to the `val` of `prev`.
  struct BoundLog {
    int node;          // 2*var + (is_hi ? 1 : 0)
    int row;           // active-row index that derived the bound
    int prev;          // previous log entry for `node`, or -1
    std::int64_t val;  // the bound this entry set
  };
  std::vector<BoundLog> blog_;  // chronological bound-derivation log
  std::vector<int> bhead_;      // bound node -> latest log entry or -1
  std::vector<int> expl_stack_;            // justification worklist
  std::vector<std::uint64_t> entry_seen_;  // per log entry, stamped
  std::vector<std::uint64_t> row_seen_;    // per active row: atom emitted
  std::uint64_t expl_gen_ = 0;
  std::vector<std::uint32_t> expl_mark_;  // var -> blog_ size at propagation
  std::uint64_t conflicts_since_restart_ = 0;
  std::uint64_t restart_seq_ = 0;
  std::uint64_t restart_limit_ = 0;

  // Per-check transients (valid only inside solve(); reset on every exit).
  const CheckJob* job_ = nullptr;
  std::uint64_t check_conflict_base_ = 0;
  std::uint64_t check_decision_base_ = 0;
  std::uint64_t check_prop_base_ = 0;
  bool deadline_active_ = false;
  Clock::time_point deadline_;
  std::uint64_t ops_ = 0;
  std::uint64_t slow_polls_ = 0;  // bump_ops slow-path count (memory cadence)

  // Results of the last solve + lifetime counters.
  SolveStats stats_;
  std::uint64_t conflict_lits_ = 0;  // Σ conflict sizes (mean_conflict_lits)
  util::StopReason last_stop_ = util::StopReason::kNone;
  Model model_;
};

}  // namespace advocat::smt::native
