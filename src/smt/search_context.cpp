// Search half of the native CDCL(T) solver — see search_context.hpp for
// the SharedProblem/SearchContext split and native_solver.cpp for the
// translation half. The search reads the encoded problem through sh_ and
// counts into the context's own SolveStats.
#include "smt/search_context.hpp"

#include <algorithm>
#include <limits>

#include "smt/audit.hpp"
#include "smt/proof.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"

namespace advocat::smt::native {
namespace {

constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kPosInf = std::numeric_limits<std::int64_t>::max();
// Derived bounds are clamped strictly inside the sentinels.
constexpr std::int64_t kBoundClamp = std::int64_t{1} << 60;

// CDCL tuning. Restarts follow the Luby sequence scaled by kRestartBase;
// learned-clause reduction triggers once the live learned set exceeds
// kReduceBase + kReduceInc per reduction already performed.
constexpr std::uint64_t kRestartBase = 192;
constexpr std::size_t kReduceBase = 2000;
constexpr std::size_t kReduceInc = 1000;

// ADVOCAT_REDUCE_BASE / ADVOCAT_REDUCE_INC override kReduceBase /
// kReduceInc (same values for every context in the process, read once) —
// the arena GC tests use tiny values to make reductions and compactions
// happen on small inputs.
std::size_t reduce_base() {
  static const std::size_t v =
      util::env_uint("ADVOCAT_REDUCE_BASE", kReduceBase, 4, 100'000'000);
  return v;
}
std::size_t reduce_inc() {
  static const std::size_t v =
      util::env_uint("ADVOCAT_REDUCE_INC", kReduceInc, 4, 100'000'000);
  return v;
}
constexpr double kVarActInc = 1.0 / 0.95;   // EVSIDS decay 0.95
constexpr double kClaActInc = 1.0 / 0.999;  // clause-activity decay 0.999
constexpr double kVarActRescale = 1e100;
constexpr double kClaActRescale = 1e20;

constexpr int kReasonNone = -1;    // decision / assumption / level-0 fact
constexpr int kReasonTheory = -2;  // entailed by the active interval rows

// floor(a / b) for b > 0, exact in __int128.
__int128 floor_div(__int128 a, std::int64_t b) {
  __int128 q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}

// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1;
  while (size < i + 1) size = 2 * size + 1;
  while (size - 1 != i) {
    size = (size - 1) / 2;
    i %= size;
  }
  return (size + 1) / 2;
}

}  // namespace

SearchContext::SearchContext(const SharedProblem& shared) : sh_(shared) {
  // The simplex layer honors the same deadline/cancel polling as every
  // other loop. The callback pins this context's address, which is why
  // SearchContext is non-copyable.
  stx_.set_tick([this] { bump_ops(); });
  restart_limit_ = kRestartBase;
}

// ---------------------------------------------------------------- plumbing

// The cooperative cancellation point. The deadline, the session-level
// cancel() flag, the propagation/memory budgets, and deferred faults are
// all polled here — and bump_ops is called from *every* potentially long
// loop: boolean propagation, interval tightening, the entailed-atom
// rescan, the provenance walk and (through the tick hook) the simplex
// pivot loop. Every governed unwind therefore originates from the same
// program points a deadline can, so one proven exception-safety path
// covers them all.
void SearchContext::bump_ops() {
  if ((++ops_ & 0x3ff) != 0) return;
  if (deadline_active_ && Clock::now() > deadline_) {
    throw util::Stop{util::StopReason::kDeadline};
  }
  ++slow_polls_;
  if (job_ != nullptr) {
    if (job_->cancel != nullptr &&
        job_->cancel->load(std::memory_order_relaxed)) {
      throw util::Stop{util::StopReason::kCancelled};
    }
    if (job_->budget != nullptr) {
      if (job_->budget->max_propagations != 0 &&
          stats_.propagations - check_prop_base_ >=
              job_->budget->max_propagations) {
        throw util::Stop{util::StopReason::kPropagationBudget};
      }
      // The memory gauge walks a few pool sizes; poll it at 1/16 of the
      // (already 1/1024) slow path.
      if (job_->budget->max_memory_bytes != 0 && (slow_polls_ & 0xf) == 0) {
        check_memory_ceiling();
      }
    }
  }
  if (util::fault::enabled() && util::fault::take_deferred()) {
    throw util::fault::FaultInjected{};
  }
}

void SearchContext::check_search_budgets() const {
  if (job_ == nullptr || job_->budget == nullptr) return;
  if (job_->budget->max_conflicts != 0 &&
      stats_.conflicts - check_conflict_base_ >= job_->budget->max_conflicts) {
    throw util::Stop{util::StopReason::kConflictBudget};
  }
  if (job_->budget->max_decisions != 0 &&
      stats_.decisions - check_decision_base_ >= job_->budget->max_decisions) {
    throw util::Stop{util::StopReason::kDecisionBudget};
  }
}

void SearchContext::check_memory_ceiling() {
  const std::uint64_t arena = arena_.bytes();
  if (arena > stats_.peak_arena_bytes) stats_.peak_arena_bytes = arena;
  const std::uint64_t total = arena + util::BigInt::heap_bytes_in_use() +
                              static_cast<std::uint64_t>(stx_.pool_bytes());
  if (total >= job_->budget->max_memory_bytes) {
    throw util::Stop{util::StopReason::kMemoryCeiling};
  }
}

Val SearchContext::value_lit(Lit l) const {
  const Val v = assign_[static_cast<std::size_t>(var_of(l))];
  if (v == kUndef) return kUndef;
  return is_neg(l) ? (v == kTrue ? kFalse : kTrue) : v;
}

int SearchContext::current_level() const {
  return static_cast<int>(levels_.size());
}

bool SearchContext::enqueue(Lit l, int reason) {
  const int v = var_of(l);
  const Val want = is_neg(l) ? kFalse : kTrue;
  const Val cur = assign_[static_cast<std::size_t>(v)];
  if (cur != kUndef) return cur == want;
  assign_[static_cast<std::size_t>(v)] = want;
  reason_[static_cast<std::size_t>(v)] = reason;
  level_[static_cast<std::size_t>(v)] = current_level();
  trail_.push_back(l);
  if (reason != kReasonNone) ++stats_.propagations;
  return true;
}

// Copies problem clauses translated since this context last looked. The
// problem is append-only, so appending at the arena end keeps the clauses
// in translation order.
void SearchContext::sync_problem() {
  for (; clauses_synced_ < sh_.clauses.size(); ++clauses_synced_) {
    arena_.alloc(sh_.clauses.begin(clauses_synced_),
                 sh_.clauses.len(clauses_synced_), /*learned=*/false,
                 /*tainted=*/false, /*prior=*/false, /*lbd=*/0, /*act=*/0.0);
  }
}

// --------------------------------------------------------------- propagate

int SearchContext::propagate_bool() {
  while (qhead_ < trail_.size()) {
    bump_ops();
    const Lit l = trail_[qhead_++];
    const Lit fl = neg(l);
    auto& ws = watches_[static_cast<std::size_t>(fl)];
    std::size_t i = 0;
    std::size_t keep = 0;
    ClauseRef conflict = kClauseRefUndef;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      // Blocker fast path: a true blocker proves the clause satisfied
      // without loading a single clause word from the arena.
      if (value_lit(w.blocker) == kTrue) {
        ws[keep++] = ws[i++];
        continue;
      }
      if (arena_.deleted(w.ref)) {  // lazily drop tombstoned watch entries
        ++i;
        continue;
      }
      Lit* c = arena_.lits(w.ref);
      const std::uint32_t n = arena_.size(w.ref);
      if (c[0] == fl) std::swap(c[0], c[1]);
      const Lit first = c[0];
      if (first != w.blocker && value_lit(first) == kTrue) {
        // Clause already satisfied by the other watch: keep the entry and
        // refresh the blocker to the literal that proved it.
        ws[keep++] = Watcher{w.ref, first};
        ++i;
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2; k < n; ++k) {
        if (value_lit(c[k]) != kFalse) {
          std::swap(c[1], c[k]);
          watches_[static_cast<std::size_t>(c[1])].push_back(
              Watcher{w.ref, first});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;  // watch migrated away from fl
        continue;
      }
      if (arena_.prior(w.ref)) ++stats_.learned_hits;  // cross-check reuse
      if (!enqueue(first, w.ref)) {  // unit clause contradicted
        conflict = w.ref;
        while (i < ws.size()) ws[keep++] = ws[i++];
        break;
      }
      ws[keep++] = Watcher{w.ref, first};
      ++i;
    }
    ws.resize(keep);
    if (conflict >= 0) return conflict;
  }
  return kClauseRefUndef;
}

// Every derivation appends one bound-log entry, so explanations can walk
// derivation time and rewind_blog can restore the bounds. The log is not
// deduplicated: between two level marks its growth is bounded by the
// tightening budget of propagate_rows.
void SearchContext::set_bound(int v, bool is_hi, std::int64_t val, int ri) {
  (is_hi ? hi_ : lo_)[static_cast<std::size_t>(v)] = val;
  const int node = bnode(v, is_hi);
  blog_.push_back(
      BoundLog{node, ri, bhead_[static_cast<std::size_t>(node)], val});
  bhead_[static_cast<std::size_t>(node)] = static_cast<int>(blog_.size()) - 1;
  if (dirty_stamp_[static_cast<std::size_t>(v)] != dirty_gen_) {
    dirty_stamp_[static_cast<std::size_t>(v)] = dirty_gen_;
    dirty_vars_.push_back(v);
  }
}

// Pops the log back to `mark`, restoring each popped entry's bound to the
// one it overwrote: its predecessor's value, or ∓∞ at the chain's start.
void SearchContext::rewind_blog(std::size_t mark) {
  while (blog_.size() > mark) {
    const BoundLog& e = blog_.back();
    const bool is_hi = (e.node & 1) != 0;
    (is_hi ? hi_ : lo_)[static_cast<std::size_t>(e.node >> 1)] =
        e.prev >= 0 ? blog_[static_cast<std::size_t>(e.prev)].val
                    : (is_hi ? kPosInf : kNegInf);
    bhead_[static_cast<std::size_t>(e.node)] = e.prev;
    blog_.pop_back();
  }
}

// Activation also asserts the row's bound in the simplex (tagged by row
// index, on the slack of its linear form `form`), so the tableau's bounds
// follow the trail. A bound that crosses one already asserted on the same
// form is a two-row Farkas conflict (multiplier 1 each), reported by
// activate_theory.
void SearchContext::activate_row(const StaticRow* r, int form, Lit cause) {
  const int ri = static_cast<int>(active_rows_.size());
  active_rows_.push_back(r);
  active_row_lit_.push_back(cause);
  row_stx_mark_.push_back(stx_.mark());
  for (const auto& [v, c] : r->terms) {
    (void)c;
    row_occ_[static_cast<std::size_t>(v)].push_back(ri);
  }
  row_work_.push_back(ri);
  if (!stx_.assert_row(*r, form, ri) && sconf_rows_.empty()) {
    sconf_rows_ = stx_.crossing();
    if (plog_ != nullptr) {
      sconf_mults_.assign(sconf_rows_.size(), util::Rational(1));
    }
  }
}

void SearchContext::deactivate_rows_to(std::size_t mark) {
  if (active_rows_.size() > mark) {
    stx_.retract_to(row_stx_mark_[mark]);
    row_stx_mark_.resize(mark);
  }
  while (active_rows_.size() > mark) {
    const StaticRow* r = active_rows_.back();
    for (const auto& [v, c] : r->terms) {
      (void)c;
      row_occ_[static_cast<std::size_t>(v)].pop_back();
    }
    active_rows_.pop_back();
    active_row_lit_.pop_back();
  }
}

// Final sweep after an exhausted tightening budget: the LIFO worklist can
// starve a row that is already violated by the walked bounds (the
// divergent lap keeps re-queuing itself on top), so check every active
// row once before giving up — a definite conflict beats an Unknown leaf.
bool SearchContext::scan_violated_row() {
  for (const StaticRow* r : active_rows_) {
    bump_ops();
    const Activity min = activity(*r, /*max_side=*/false);
    if (min.ninf == 0 && min.sum > r->bound) return true;
  }
  return false;
}

// The rational simplex decides the active rows from its persistent basis.
// An infeasibility lands its Farkas rows in sconf_rows_ and becomes the
// theory conflict. Runs on every interval conflict (for a short
// explanation) and when tightening exhausts its budget (an infeasible
// unbounded flow cycle is refuted in a handful of pivots instead of walked
// one unit at a time).
bool SearchContext::simplex_refute() {
  SimplexTheory::Result res = stx_.check();
  if (res.verdict != SimplexTheory::Verdict::Infeasible) return false;
  sconf_rows_ = std::move(res.conflict_rows);
  sconf_mults_ = std::move(res.multipliers);
  return true;
}

// Turns the pending simplex conflict into theory_conflict_ literals: the
// negated activating atoms of the Farkas rows (one row per atom literal).
// The clause is a theory lemma, logged with the simplex's multipliers.
void SearchContext::emit_simplex_conflict() {
  for (const int ri : sconf_rows_) {
    theory_conflict_.push_back(
        neg(active_row_lit_[static_cast<std::size_t>(ri)]));
  }
  log_theory_lemma(theory_conflict_, sconf_mults_);
  sconf_rows_.clear();
  sconf_mults_.clear();
}

// Explains the pending theory conflict in theory_conflict_: the Farkas
// rows of the simplex when it refutes the active rows (the common case —
// a few atoms). An integer-only conflict — the active rows are rationally
// feasible — is blocked by every asserted atom above level 0: tightening
// read only active rows, so that clause is entailed. The logged lemma
// lists the level-0 atoms too, so that it is valid on its own.
void SearchContext::explain_interval_conflict() {
  if (sconf_rows_.empty()) simplex_refute();
  if (!sconf_rows_.empty()) {
    ++stats_.conflicts_interval_farkas;
    emit_simplex_conflict();
    return;
  }
  ++stats_.conflicts_interval_integer;
  collect_theory_lits(theory_conflict_, /*level0=*/false);
  if (plog_ != nullptr) {
    reason_scratch_.clear();
    collect_theory_lits(reason_scratch_, /*level0=*/true);
    log_theory_lemma(reason_scratch_, {});
  }
}

// Interval tightening to fixpoint over the worklist; true on conflict.
// Bounded: an infeasible integer cycle makes the fixpoint walk bounds one
// unit per lap (no finite convergence), so refinement stops after a
// budget proportional to the active system — sound, merely less pruning;
// the simplex then decides the active rows (simplex_refute).
bool SearchContext::propagate_rows() {
  std::uint64_t budget = 64 * active_rows_.size() + 1024;
  while (!row_work_.empty()) {
    if (budget == 0) {
      row_work_.clear();
      if (scan_violated_row()) return true;
      return simplex_refute();
    }
    bump_ops();
    const int ri = row_work_.back();
    row_work_.pop_back();
    const StaticRow& r = *active_rows_[static_cast<std::size_t>(ri)];
    const auto [minsum, ninf] = activity(r, /*max_side=*/false);
    if (ninf == 0 && minsum > r.bound) {
      row_work_.clear();
      return true;
    }
    for (const auto& [v, c] : r.terms) {
      bump_ops();
      const std::int64_t b = c > 0 ? lo_[static_cast<std::size_t>(v)]
                                   : hi_[static_cast<std::size_t>(v)];
      const bool self_inf = (b == kNegInf || b == kPosInf);
      if (ninf - (self_inf ? 1 : 0) > 0) continue;  // another var unbounded
      const __int128 rest =
          self_inf ? minsum : minsum - static_cast<__int128>(c) * b;
      const __int128 slack = static_cast<__int128>(r.bound) - rest;
      // Derived bounds are clamped only toward looseness: a bound beyond
      // +/-kBoundClamp is either dropped (no information) or relaxed to
      // the clamp, never tightened past what the row entails — claiming
      // a tighter bound than entailed could turn Sat into Unsat.
      bool changed = false;
      if (c > 0) {  // c·v ≤ slack  →  v ≤ ⌊slack/c⌋
        const __int128 nb = floor_div(slack, c);
        if (nb <= kBoundClamp && nb < hi_[static_cast<std::size_t>(v)]) {
          set_bound(v, true,
                    nb < -kBoundClamp ? -kBoundClamp
                                      : static_cast<std::int64_t>(nb),
                    ri);
          changed = true;
        }
      } else {  // c·v ≤ slack, c<0  →  v ≥ ⌈slack/c⌉ = -⌊slack/(-c)⌋
        const __int128 nb = -floor_div(slack, -c);
        if (nb >= -kBoundClamp && nb > lo_[static_cast<std::size_t>(v)]) {
          set_bound(v, false,
                    nb > kBoundClamp ? kBoundClamp
                                     : static_cast<std::int64_t>(nb),
                    ri);
          changed = true;
        }
      }
      if (changed) {
        --budget;
        if (lo_[static_cast<std::size_t>(v)] >
            hi_[static_cast<std::size_t>(v)]) {
          row_work_.clear();
          return true;
        }
        for (int rj : row_occ_[static_cast<std::size_t>(v)]) {
          row_work_.push_back(rj);
        }
        if (budget == 0) break;
      }
    }
  }
  return false;
}

// Activates the theory rows of atoms assigned since the last call and
// re-runs bounds propagation; true on conflict.
bool SearchContext::activate_theory() {
  row_work_.clear();
  for (; theory_head_ < trail_.size(); ++theory_head_) {
    const Lit l = trail_[theory_head_];
    const int v = var_of(l);
    const int ai = sh_.atom_of_var[static_cast<std::size_t>(v)];
    if (ai < 0) continue;
    const Atom& a = sh_.atoms[static_cast<std::size_t>(ai)];
    activate_row(is_neg(l) ? &a.negation : &a.row, a.form, l);
  }
  if (!sconf_rows_.empty()) {  // bound crossing in the simplex
    row_work_.clear();
    return true;
  }
  return propagate_rows();
}

// ----------------------------------------------- provenance explanations
//
// Explains entailed atoms (conflicts are explained by the simplex). A
// derivation's justification is a walk over the chronological bound
// log: entry e (row R derived this bound) is justified by R's activating
// atom plus, for each min-side input of R, that input's latest log entry
// OLDER than e. Walking derivation time — instead of a mutable
// current-source graph — keeps the proof DAG acyclic and grounded; see
// the pre-split solver history for the full rationale. Load-bearing for
// soundness: a conflict explained with too few atoms would learn a clause
// the theory does not entail.

int SearchContext::entry_before(int node, int before) const {
  int e = bhead_[static_cast<std::size_t>(node)];
  while (e >= before) e = blog_[static_cast<std::size_t>(e)].prev;
  return e;
}

void SearchContext::expl_begin() {
  if (row_seen_.size() < active_rows_.size()) {
    row_seen_.resize(active_rows_.size(), 0);
  }
  if (entry_seen_.size() < blog_.size()) {
    entry_seen_.resize(blog_.size(), 0);
  }
  ++expl_gen_;
  expl_stack_.clear();
}

void SearchContext::emit_row_atom(int ri, std::vector<Lit>& atoms_out) {
  if (row_seen_[static_cast<std::size_t>(ri)] == expl_gen_) return;
  row_seen_[static_cast<std::size_t>(ri)] = expl_gen_;
  atoms_out.push_back(neg(active_row_lit_[static_cast<std::size_t>(ri)]));
}

void SearchContext::expl_push(int e) {
  if (entry_seen_[static_cast<std::size_t>(e)] == expl_gen_) return;
  entry_seen_[static_cast<std::size_t>(e)] = expl_gen_;
  expl_stack_.push_back(e);
}

void SearchContext::expl_run(std::vector<Lit>& atoms_out) {
  while (!expl_stack_.empty()) {
    bump_ops();
    const int e = expl_stack_.back();
    expl_stack_.pop_back();
    const BoundLog& le = blog_[static_cast<std::size_t>(e)];
    const StaticRow& r = *active_rows_[static_cast<std::size_t>(le.row)];
    emit_row_atom(le.row, atoms_out);
    const int out_var = le.node >> 1;
    for (const auto& [u, c] : r.terms) {
      // The derivation consumed the row's min-side inputs (lo for
      // positive coefficients, hi for negative) of every term except
      // the output variable itself — its own opposite bound never
      // enters the slack.
      if (u == out_var) continue;
      const int f = entry_before(bnode(u, c < 0), e);
      if (f >= 0) expl_push(f);
    }
  }
}

// Explains an entailed literal when conflict analysis resolves on it (few
// ever are). The walk is seeded with the bound entries the decisive row
// status read — min-side bounds for a forced-false row, max-side for
// forced-true — as they stood at propagation: entry_before reads only
// entries older than expl_mark_, and those (with the rows they cite) stay
// in place while the literal is assigned, so the reason is the one an
// eager walk at propagation would have produced.
void SearchContext::entailed_reason(Lit l, std::vector<Lit>& out) {
  const int v = var_of(l);
  const int mark = static_cast<int>(expl_mark_[static_cast<std::size_t>(v)]);
  const int ai = sh_.atom_of_var[static_cast<std::size_t>(v)];
  const StaticRow& row = sh_.atoms[static_cast<std::size_t>(ai)].row;
  expl_begin();
  for (const auto& [u, c] : row.terms) {
    const int e = entry_before(bnode(u, is_neg(l) ? c < 0 : c > 0), mark);
    if (e >= 0) expl_push(e);
  }
  expl_run(out);
}

// Enqueues unassigned atom literals the current bounds entail, marking
// where the bound log stood so analysis can explain them later
// (entailed_reason); the boolean search then never has to rediscover
// them by conflict. Only atoms over variables whose bounds changed since
// the last scan are re-evaluated (set_bound records them in dirty_vars_).
bool SearchContext::propagate_entailed_atoms() {
  bool any = false;
  scan_stamp_.resize(sh_.atoms.size(), 0);
  ++scan_gen_;
  for (std::size_t at = 0; at < dirty_vars_.size(); ++at) {
    const int iv = dirty_vars_[at];
    if (static_cast<std::size_t>(iv) >= sh_.atom_occ.size()) continue;
    for (const int ai : sh_.atom_occ[static_cast<std::size_t>(iv)]) {
      bump_ops();
      if (scan_stamp_[static_cast<std::size_t>(ai)] == scan_gen_) continue;
      scan_stamp_[static_cast<std::size_t>(ai)] = scan_gen_;
      const int v = sh_.atom_var[static_cast<std::size_t>(ai)];
      if (assign_[static_cast<std::size_t>(v)] != kUndef) continue;
      const StaticRow& row = sh_.atoms[static_cast<std::size_t>(ai)].row;
      const int entailed = row_status(row);  // +1 atom true, -1 atom false
      if (entailed != 0) {
        const Lit l = mk_lit(v, entailed < 0);
        expl_mark_[static_cast<std::size_t>(v)] =
            static_cast<std::uint32_t>(blog_.size());
        ++stats_.entailed_propagations;
        // Below the first decision the reason is logged at once: the
        // checker's `rup` and `qed` steps derive level-0 and
        // assumption-prefix literals by unit propagation through it.
        if (plog_ != nullptr && current_level() <= prefix_levels_) {
          reason_scratch_.assign(1, l);
          entailed_reason(l, reason_scratch_);
          log_theory_lemma(reason_scratch_, {});
        }
        const bool ok = enqueue(l, kReasonTheory);
        (void)ok;  // the variable was unassigned
        any = true;
      }
    }
  }
  clear_dirty();
  return any;
}

void SearchContext::clear_dirty() {
  dirty_vars_.clear();
  ++dirty_gen_;
}

SearchContext::Conflict SearchContext::propagate_all() {
  for (;;) {
    const int ci = propagate_bool();
    if (ci >= 0) return {Conflict::kClause, ci};
    if (theory_head_ != trail_.size()) {
      if (activate_theory()) return {Conflict::kTheory, -1};
      continue;  // theory may tighten bounds; rescan atoms below
    }
    if (!propagate_entailed_atoms()) return {Conflict::kNone, -1};
  }
}

SearchContext::Activity SearchContext::activity(const StaticRow& r,
                                                bool max_side) const {
  Activity a;
  for (const auto& [v, c] : r.terms) {
    const std::int64_t b = (c > 0) != max_side
                               ? lo_[static_cast<std::size_t>(v)]
                               : hi_[static_cast<std::size_t>(v)];
    if (b == kNegInf || b == kPosInf) ++a.ninf;
    else a.sum += static_cast<__int128>(c) * b;
  }
  return a;
}

// Entailment of an atom's ≤-row under the current bounds: +1 forced true,
// -1 forced false, 0 open.
int SearchContext::row_status(const StaticRow& r) const {
  const Activity min = activity(r, /*max_side=*/false);
  if (min.ninf == 0 && min.sum > r.bound) return -1;
  const Activity max = activity(r, /*max_side=*/true);
  if (max.ninf == 0 && max.sum <= r.bound) return +1;
  return 0;
}

// Phase for deciding a variable: for atoms, follow what the bounds
// already entail so the first branch is not an immediate theory conflict;
// otherwise the saved polarity (phase saving — seeded from the previous
// check's final assignment, updated on every unassign), defaulting to
// false.
bool SearchContext::decide_phase_negated(int v) const {
  const int ai = sh_.atom_of_var[static_cast<std::size_t>(v)];
  if (ai >= 0) {
    const int s = row_status(sh_.atoms[static_cast<std::size_t>(ai)].row);
    if (s != 0) return s < 0;
  }
  if (polarity_[static_cast<std::size_t>(v)] != kUndef) {
    return polarity_[static_cast<std::size_t>(v)] == kFalse;
  }
  return true;
}

// ---------------------------------------------- activity heap (VSIDS)

void SearchContext::heap_swap(std::size_t i, std::size_t j) {
  std::swap(heap_[i], heap_[j]);
  heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
  heap_pos_[static_cast<std::size_t>(heap_[j])] = static_cast<int>(j);
}

void SearchContext::heap_up(std::size_t i) {
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (activity_[static_cast<std::size_t>(heap_[i])] <=
        activity_[static_cast<std::size_t>(heap_[p])]) {
      break;
    }
    heap_swap(i, p);
    i = p;
  }
}

void SearchContext::heap_down(std::size_t i) {
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t best = i;
    if (l < heap_.size() &&
        activity_[static_cast<std::size_t>(heap_[l])] >
            activity_[static_cast<std::size_t>(heap_[best])]) {
      best = l;
    }
    if (r < heap_.size() &&
        activity_[static_cast<std::size_t>(heap_[r])] >
            activity_[static_cast<std::size_t>(heap_[best])]) {
      best = r;
    }
    if (best == i) break;
    heap_swap(i, best);
    i = best;
  }
}

void SearchContext::heap_insert(int v) {
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) return;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

int SearchContext::heap_pop() {
  const int v = heap_[0];
  heap_pos_[static_cast<std::size_t>(v)] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
  }
  heap_.pop_back();
  if (!heap_.empty()) heap_down(0);
  return v;
}

void SearchContext::bump_var(int v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > kVarActRescale) {
    for (double& a : activity_) a *= 1.0 / kVarActRescale;
    var_inc_ *= 1.0 / kVarActRescale;
  }
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) {
    heap_up(static_cast<std::size_t>(heap_pos_[static_cast<std::size_t>(v)]));
  }
}

void SearchContext::bump_clause(ClauseRef ci) {
  if (!arena_.learned(ci)) return;
  const double a = arena_.act(ci) + cla_inc_;
  arena_.set_act(ci, a);
  if (a > kClaActRescale) {
    // Rescale every learned clause — tombstones included, exactly like
    // the old per-object arena, so activity orderings stay bit-identical.
    for (ClauseRef r = arena_.first(); r != kClauseRefUndef;
         r = arena_.next(r)) {
      if (arena_.learned(r)) {
        arena_.set_act(r, arena_.act(r) * (1.0 / kClaActRescale));
      }
    }
    cla_inc_ *= 1.0 / kClaActRescale;
  }
}

int SearchContext::pick_branch() {
  while (!heap_.empty()) {
    const int v = heap_pop();
    if (assign_[static_cast<std::size_t>(v)] == kUndef) return v;
  }
  return -1;
}

// ------------------------------------------------------ levels, backjump

void SearchContext::push_level() {
  levels_.push_back(
      LevelMark{trail_.size(), active_rows_.size(), blog_.size()});
}

void SearchContext::backjump(int target) {
  if (current_level() <= target) return;
  const LevelMark mark = levels_[static_cast<std::size_t>(target)];
  for (std::size_t i = trail_.size(); i > mark.trail; --i) {
    const int v = var_of(trail_[i - 1]);
    polarity_[static_cast<std::size_t>(v)] =
        assign_[static_cast<std::size_t>(v)];
    assign_[static_cast<std::size_t>(v)] = kUndef;
    reason_[static_cast<std::size_t>(v)] = kReasonNone;
    heap_insert(v);
  }
  trail_.resize(mark.trail);
  qhead_ = mark.trail;
  theory_head_ = mark.trail;
  deactivate_rows_to(mark.rows);
  rewind_blog(mark.blog);
  row_work_.clear();
  clear_dirty();  // loosened bounds cannot newly entail anything
  levels_.resize(static_cast<std::size_t>(target));
  prefix_placed_ = std::min(prefix_placed_, target);
  prefix_levels_ = std::min(prefix_levels_, target);
  if (audit_enabled()) Auditor::check_search(*this, "backjump");
}

// -------------------------------------------------- learning (first UIP)

void SearchContext::collect_theory_lits(std::vector<Lit>& out,
                                        bool level0) const {
  for (const Lit l : trail_) {
    const int v = var_of(l);
    if (!level0 && level_[static_cast<std::size_t>(v)] == 0) continue;
    if (sh_.atom_of_var[static_cast<std::size_t>(v)] >= 0) {
      out.push_back(neg(l));
    }
  }
}

void SearchContext::log_theory_lemma(const std::vector<Lit>& clause,
                                     const std::vector<util::Rational>& hint) {
  if (plog_ != nullptr) plog_->log_lemma(clause.data(), clause.size(), hint);
}

// First-UIP conflict analysis; see the pre-split solver for the full
// commentary. Produces learnt_ (learnt_[0] the asserting literal,
// learnt_[1] — when present — the backjump-level watch) and returns the
// backjump level; lbd_out gets the clause's LBD.
int SearchContext::analyze(const Lit* conflict, std::size_t nconf,
                           ClauseRef conflict_ci, int& lbd_out) {
  const int clevel = current_level();
  learnt_.assign(1, 0);  // slot 0: asserting literal, filled at the end
  int counter = 0;
  auto consider = [&](Lit q) {
    const int v = var_of(q);
    if (seen_[static_cast<std::size_t>(v)] ||
        level_[static_cast<std::size_t>(v)] == 0) {
      return;
    }
    seen_[static_cast<std::size_t>(v)] = 1;
    to_clear_.push_back(v);
    bump_var(v);
    if (level_[static_cast<std::size_t>(v)] >= clevel) ++counter;
    else learnt_.push_back(q);
  };
  for (std::size_t qi = 0; qi < nconf; ++qi) consider(conflict[qi]);
  if (conflict_ci >= 0) bump_clause(conflict_ci);

  Lit p = 0;
  std::size_t idx = trail_.size();
  for (;;) {
    while (!seen_[static_cast<std::size_t>(var_of(trail_[idx - 1]))]) --idx;
    p = trail_[--idx];
    const int v = var_of(p);
    seen_[static_cast<std::size_t>(v)] = 0;
    if (--counter == 0) break;
    const int r = reason_[static_cast<std::size_t>(v)];
    if (r == kReasonTheory) {
      // Explained (and its reason logged) only now that analysis reads it.
      reason_scratch_.assign(1, p);
      entailed_reason(p, reason_scratch_);
      ++stats_.entailed_explained;
      log_theory_lemma(reason_scratch_, {});
      for (std::size_t i = 1; i < reason_scratch_.size(); ++i) {
        consider(reason_scratch_[i]);
      }
    } else {
      // r >= 0: counter > 0 guarantees a resolvable (propagated) literal.
      bump_clause(r);
      const Lit* rl = arena_.lits(r);
      const std::uint32_t rn = arena_.size(r);
      for (std::uint32_t i = 0; i < rn; ++i) {
        if (rl[i] != p) consider(rl[i]);
      }
    }
  }
  learnt_[0] = neg(p);

  // Clause minimization: a literal is redundant when its reason clause
  // is subsumed by the rest of the learnt clause (every other reason
  // literal is already in the clause or permanent). Theory-propagated
  // and decision literals are conservatively kept.
  std::size_t j = 1;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    const Lit q = learnt_[i];
    const int v = var_of(q);
    const int r = reason_[static_cast<std::size_t>(v)];
    bool redundant = r >= 0;
    if (redundant) {
      const Lit* rl = arena_.lits(r);
      const std::uint32_t rn = arena_.size(r);
      for (std::uint32_t k = 0; k < rn; ++k) {
        const int uv = var_of(rl[k]);
        if (uv == v) continue;
        if (!seen_[static_cast<std::size_t>(uv)] &&
            level_[static_cast<std::size_t>(uv)] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) learnt_[j++] = q;
  }
  learnt_.resize(j);

  for (const int v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
  to_clear_.clear();

  // Backjump level: the highest level below the asserting literal's;
  // that literal moves to slot 1 as the second watch.
  int bt = 0;
  if (learnt_.size() > 1) {
    std::size_t at = 1;
    for (std::size_t i = 2; i < learnt_.size(); ++i) {
      if (level_[static_cast<std::size_t>(var_of(learnt_[i]))] >
          level_[static_cast<std::size_t>(var_of(learnt_[at]))]) {
        at = i;
      }
    }
    std::swap(learnt_[1], learnt_[at]);
    bt = level_[static_cast<std::size_t>(var_of(learnt_[1]))];
  }

  // LBD: number of distinct decision levels in the clause.
  lbd_levels_.clear();
  for (const Lit q : learnt_) {
    lbd_levels_.push_back(level_[static_cast<std::size_t>(var_of(q))]);
  }
  std::sort(lbd_levels_.begin(), lbd_levels_.end());
  lbd_out =
      static_cast<int>(std::unique(lbd_levels_.begin(), lbd_levels_.end()) -
                       lbd_levels_.begin());
  return bt;
}

// Learns from a conflict (clause index `ci`, or a theory conflict when
// ci < 0): analyzes, backjumps, attaches the learnt clause and asserts
// its first literal. Returns false when the conflict is at level 0 — the
// check is decided. Clauses learned after this check saw an
// Unknown-degraded leaf are tainted: any of them may transitively depend
// on an unproven refutation, so they all die at the next check boundary.
bool SearchContext::resolve_conflict(const Lit* conflict, std::size_t nconf,
                                     ClauseRef ci) {
  ++stats_.conflicts;
  conflict_lits_ += nconf;
  stats_.mean_conflict_lits = static_cast<double>(conflict_lits_) /
                              static_cast<double>(stats_.conflicts);
  int clevel = 0;
  for (std::size_t qi = 0; qi < nconf; ++qi) {
    clevel = std::max(
        clevel, level_[static_cast<std::size_t>(var_of(conflict[qi]))]);
  }
  if (clevel == 0) return false;
  // Leaf/theory conflicts may not involve the innermost decisions (e.g.
  // a pure gate-variable decision after the last atom): analyze at the
  // highest level that actually participates.
  backjump(clevel);
  int lbd = 0;
  // `conflict` may point into the arena (clause conflicts); it is consumed
  // entirely by analyze(), before the learnt clause is allocated below.
  const int bt = analyze(conflict, nconf, ci, lbd);
  backjump(bt);
  const bool tainted = saw_unknown_;
  ++stats_.learned_clauses;
  // Tainted clauses are never logged — they may rest on an unproven
  // refutation.
  if (plog_ != nullptr && !tainted) {
    plog_->log_rup(learnt_.data(), learnt_.size());
  }
  if (learnt_.size() == 1) {
    // Unit consequence: permanent — re-asserted at level 0 of every
    // later check — unless tainted, in which case it lives only on this
    // check's trail and dies with it.
    if (!tainted) learned_units_.push_back(learnt_[0]);
    const bool ok = enqueue(learnt_[0], kReasonNone);
    (void)ok;  // unassigned: its level was above the backjump target
  } else {
    // Fault site: each learned-clause allocation is one arena_alloc
    // arrival. A scheduled failure is latched (defer) and thrown at the
    // next bump_ops — never here, where the watch lists are mid-update.
    util::fault::defer(util::fault::Site::kArenaAlloc);
    const ClauseRef lci = arena_.alloc(
        learnt_.data(), static_cast<std::uint32_t>(learnt_.size()),
        /*learned=*/true, tainted, /*prior=*/false, lbd, cla_inc_);
    ++num_learned_live_;
    num_tainted_ += tainted ? 1 : 0;
    watches_[static_cast<std::size_t>(learnt_[0])].push_back(
        Watcher{lci, learnt_[1]});
    watches_[static_cast<std::size_t>(learnt_[1])].push_back(
        Watcher{lci, learnt_[0]});
    const bool ok = enqueue(learnt_[0], lci);
    (void)ok;
  }
  var_inc_ *= kVarActInc;
  cla_inc_ *= kClaActInc;
  ++conflicts_since_restart_;
  return true;
}

// Luby-scheduled restart (back to the assumption prefix — re-deciding
// assumptions would only redo identical propagation) and LBD/activity
// clause-database reduction.
void SearchContext::maybe_restart_or_reduce() {
  if (conflicts_since_restart_ >= restart_limit_) {
    ++stats_.restarts;
    conflicts_since_restart_ = 0;
    restart_limit_ = luby(++restart_seq_) * kRestartBase;
    backjump(std::min(prefix_levels_, current_level()));
    if (audit_enabled()) {
      Auditor::check_deep(*this, "restart", /*bounds_settled=*/true);
    }
  }
  if (num_learned_live_ >= reduce_base() + reduce_inc() * num_reductions_) {
    reduce_db();
  }
}

// Deletes the worst half of the deletable learned clauses (kept: small
// LBD, binary, and locked clauses — those currently acting as a reason).
// Deletion is a tombstone; watch entries drop lazily. When tombstones hold
// half the arena it is compacted on the spot (watch and reason refs are
// rewritten through the forwarding map); whatever waste remains is swept
// at the next check boundary.
void SearchContext::reduce_db() {
  ++num_reductions_;
  arena_has_tombstones_ = true;
  reduce_order_.clear();
  for (ClauseRef ci = arena_.first(); ci != kClauseRefUndef;
       ci = arena_.next(ci)) {
    if (!arena_.learned(ci) || arena_.deleted(ci) || arena_.lbd(ci) <= 2 ||
        arena_.size(ci) <= 2) {
      continue;
    }
    const int v = var_of(arena_.lits(ci)[0]);
    const bool locked = assign_[static_cast<std::size_t>(v)] != kUndef &&
                        reason_[static_cast<std::size_t>(v)] == ci;
    if (!locked) reduce_order_.push_back(ci);
  }
  // Worst first: highest LBD, then lowest activity; delete half. Refs are
  // monotone in creation order, so the ref tie-break reproduces the old
  // arena-index tie-break exactly.
  std::sort(reduce_order_.begin(), reduce_order_.end(), [this](int a, int b) {
    const std::int32_t la = arena_.lbd(a);
    const std::int32_t lb = arena_.lbd(b);
    if (la != lb) return la > lb;
    const double aa = arena_.act(a);
    const double ab = arena_.act(b);
    if (aa != ab) return aa < ab;
    return a < b;  // deterministic tie-break
  });
  const std::size_t victims = reduce_order_.size() / 2;
  for (std::size_t i = 0; i < victims; ++i) {
    arena_.mark_deleted(reduce_order_[i]);
    --num_learned_live_;
    ++stats_.deleted_clauses;
  }
  if (arena_.wasted_words() > 0 &&
      arena_.wasted_words() * 2 >= arena_.words()) {
    compact_arena();
  }
}

// In-place arena GC at a reduction point: live clauses slide down (order
// preserved, so refs stay monotone in creation order), and every stored
// ref — watch lists and the reason slots of assigned variables — is
// rewritten through the forwarding map. Watch entries of tombstoned
// clauses are dropped here instead of lazily.
void SearchContext::compact_arena() {
  // The arena is at a local maximum right before a compaction — fold it
  // into the session peak so the gauge reflects mid-search high water,
  // not just check boundaries.
  const std::uint64_t now = arena_.bytes();
  if (now > stats_.peak_arena_bytes) stats_.peak_arena_bytes = now;
  arena_.begin_compact();
  for (auto& ws : watches_) {
    std::size_t keep = 0;
    for (const Watcher& w : ws) {
      const ClauseRef nr = arena_.reloc(w.ref);
      if (nr == kClauseRefUndef) continue;  // tombstone entry dropped
      ws[keep++] = Watcher{nr, w.blocker};
    }
    ws.resize(keep);
  }
  for (const Lit l : trail_) {
    int& r = reason_[static_cast<std::size_t>(var_of(l))];
    if (r >= 0) r = arena_.reloc(r);  // locked clauses are never victims
  }
  arena_.finish_compact();
  arena_has_tombstones_ = false;
  ++stats_.arena_compactions;
}

// ------------------------------------------------------------ leaf search

// The model of a Sat leaf: the boolean assignment plus the simplex's
// integer values, one per variable of the active rows.
void SearchContext::capture_model(const std::vector<theory::Pin>& values) {
  Model m;
  for (const auto& [v, name] : sh_.named_bools) {
    if (assign_[static_cast<std::size_t>(v)] != kUndef) {
      m.set_bool(name, assign_[static_cast<std::size_t>(v)] == kTrue);
    }
  }
  for (const theory::Pin& p : values) {
    m.set_int(sh_.int_names[static_cast<std::size_t>(p.var)], p.value);
  }
  model_ = std::move(m);
}

// Completes the integer domains at a full boolean assignment: the simplex
// decides the active rows exactly — rationally and, via branch-on-
// rational-vertex cuts, over the integers. Unsat leaves the Farkas rows in
// sconf_rows_ for the caller's blocking clause; Sat captures the model; a
// blown branch budget keeps the honest Unknown.
SatResult SearchContext::int_complete() {
  std::vector<int> int_vars;
  std::vector<char> seen(sh_.int_names.size(), 0);
  for (const StaticRow* r : active_rows_) {
    for (const auto& [v, c] : r->terms) {
      (void)c;
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        int_vars.push_back(v);
      }
    }
  }
  SimplexTheory::Result res = stx_.check_integer(int_vars);
  switch (res.verdict) {
    case SimplexTheory::Verdict::Infeasible:
      sconf_rows_ = std::move(res.conflict_rows);
      sconf_mults_ = std::move(res.multipliers);
      return SatResult::Unsat;
    case SimplexTheory::Verdict::IntegerModel:
      capture_model(res.model);
      return SatResult::Sat;
    case SimplexTheory::Verdict::Feasible:
      break;  // rationally feasible, integer-open: stay Unknown
  }
  return SatResult::Unknown;
}

// ---------------------------------------------------------- check driving

// Prepares the search state for a fresh check while keeping everything
// that is expensive to rebuild: the clause database (problem *and*
// learned clauses) and the bound log's capacity. Tainted clauses from a
// previous check's Unknown-degraded leaves are purged here — they are the
// only learned material that is not entailed — and the arena is compacted
// over clauses tombstoned by reduce_db() before the watch lists are
// rebuilt.
void SearchContext::reset_search() {
  // Unwind the previous check: restore every bound changed since scope 0
  // and unassign the trail, saving its polarities as the next check's
  // phase hints.
  levels_.clear();
  deactivate_rows_to(0);
  stx_.retract_to(0);  // a stop can unwind past a check's cut retraction
  rewind_blog(0);
  polarity_.resize(static_cast<std::size_t>(sh_.num_bvars), kUndef);
  for (Lit l : trail_) {
    const auto v = static_cast<std::size_t>(var_of(l));
    polarity_[v] = assign_[v];
    assign_[v] = kUndef;
  }
  trail_.clear();
  qhead_ = theory_head_ = 0;
  row_work_.clear();
  sconf_rows_.clear();
  sconf_mults_.clear();
  clear_dirty();

  // Compact the clause arena: tombstone the tainted clauses, then drop
  // every tombstone. Safe only here — the trail is empty, so no reason
  // slot holds a clause, and the watch lists are rebuilt below, so no
  // stored ref needs relocating.
  if (num_tainted_ > 0 || arena_has_tombstones_) {
    for (ClauseRef ci = arena_.first(); ci != kClauseRefUndef;
         ci = arena_.next(ci)) {
      if (arena_.tainted(ci) && !arena_.deleted(ci)) {
        arena_.mark_deleted(ci);
        --num_learned_live_;
        ++stats_.deleted_clauses;
      }
    }
    arena_.begin_compact();
    arena_.finish_compact();
    num_tainted_ = 0;
    arena_has_tombstones_ = false;
    ++stats_.arena_compactions;
  }

  // Grow per-variable structures for material translated since the last
  // check, then rebuild the watch lists from scratch (cheap relative to
  // a solver call, and it sweeps the lazily-dropped watch entries).
  const auto nv = static_cast<std::size_t>(sh_.num_bvars);
  assign_.resize(nv, kUndef);
  reason_.resize(nv, kReasonNone);
  level_.resize(nv, 0);
  // A stop inside analyze() leaves its scratch set.
  for (const int v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
  to_clear_.clear();
  seen_.resize(nv, 0);
  // Activities restart fresh each check, with a tiny edge for theory
  // atoms: deciding atoms first lets bounds propagation fix the gate
  // variables instead of the other way around (measured ~50x on the 4x4
  // sizing probes vs. deciding in creation order). Stale activity from
  // a previous check pointed at that check's conflicts, not this one's,
  // so it is deliberately not carried over — phase saving and the
  // learned clauses carry the cross-check memory instead.
  activity_.clear();
  while (activity_.size() < nv) {
    const auto v = activity_.size();
    activity_.push_back(sh_.atom_of_var[v] >= 0 ? 1e-6 : 0.0);
  }
  var_inc_ = 1.0;
  heap_pos_.assign(nv, -1);
  heap_.clear();
  for (int v = 0; v < sh_.num_bvars; ++v) heap_insert(v);
  watches_.assign(2 * nv, {});
  for (ClauseRef ci = arena_.first(); ci != kClauseRefUndef;
       ci = arena_.next(ci)) {
    // Everything learned before this boundary counts as cross-check
    // material from here on (learned_hits tracks its reuse).
    arena_.set_prior(ci, arena_.learned(ci));
    const Lit* c = arena_.lits(ci);
    watches_[static_cast<std::size_t>(c[0])].push_back(Watcher{ci, c[1]});
    watches_[static_cast<std::size_t>(c[1])].push_back(Watcher{ci, c[0]});
  }
  const std::size_t n = sh_.int_names.size();
  lo_.resize(n, kNegInf);
  hi_.resize(n, kPosInf);
  bhead_.resize(2 * n, -1);
  row_occ_.resize(n);
  dirty_stamp_.resize(n, 0);
  scan_stamp_.resize(sh_.atoms.size(), 0);
  expl_mark_.resize(nv, 0);
  saw_unknown_ = false;
  prefix_placed_ = prefix_levels_ = 0;
  conflicts_since_restart_ = 0;
  restart_seq_ = 0;
  restart_limit_ = luby(restart_seq_) * kRestartBase;
}

SatResult SearchContext::finish_unsat() const {
  return saw_unknown_ ? SatResult::Unknown : SatResult::Unsat;
}

SatResult SearchContext::run_check() {
  reset_search();
  if (audit_enabled()) {
    Auditor::check_deep(*this, "check-begin", /*bounds_settled=*/true);
  }

  // Level 0 holds only *permanent* facts: definitional units, learned
  // unit consequences, and the root assertions, which are never
  // retracted. Conflict analysis silently drops level-0 literals, so
  // everything placed here must stay true for the session's lifetime.
  for (Lit l : sh_.def_units) {
    if (!enqueue(l, kReasonNone)) return finish_unsat();
  }
  for (Lit l : learned_units_) {
    if (!enqueue(l, kReasonNone)) return finish_unsat();
  }
  if (job_->roots != nullptr) {
    for (Lit l : *job_->roots) {
      if (!enqueue(l, kReasonNone)) return finish_unsat();
    }
  }
  // This check's assumptions form the assumption prefix: each gets its
  // own decision level (MiniSat style), so learned clauses can only depend
  // on them by mentioning their negations — the clauses stay valid after
  // the assumptions are retracted.
  assume_q_.clear();
  if (job_->assumption_lits != nullptr) {
    assume_q_ = *job_->assumption_lits;
  }

  for (;;) {
    const Conflict confl = propagate_all();
    if (confl.kind != Conflict::kNone) {
      theory_conflict_.clear();
      if (confl.kind == Conflict::kTheory) {
        explain_interval_conflict();
      } else {
        ++stats_.conflicts_clause;
      }
      const bool is_clause = confl.kind == Conflict::kClause;
      const Lit* lits = is_clause ? arena_.lits(confl.ci)
                                  : theory_conflict_.data();
      const std::size_t nlits = is_clause
                                    ? arena_.size(confl.ci)
                                    : theory_conflict_.size();
      if (!resolve_conflict(lits, nlits, is_clause ? confl.ci : -1)) {
        return finish_unsat();
      }
      maybe_restart_or_reduce();
      check_search_budgets();
      continue;
    }
    if (prefix_placed_ < static_cast<int>(assume_q_.size())) {
      const Lit p = assume_q_[static_cast<std::size_t>(prefix_placed_)];
      if (value_lit(p) == kFalse) return finish_unsat();
      push_level();  // pseudo level when p already holds: keeps the
                     // prefix 1:1 with levels across backjumps
      ++prefix_placed_;
      prefix_levels_ = current_level();
      if (value_lit(p) == kUndef) {
        const bool ok = enqueue(p, kReasonNone);
        (void)ok;
      }
      continue;
    }
    // Budgets are polled *before* pick_branch: the pick pops its variable
    // off the VSIDS heap, and a throw between the pop and the enqueue
    // would orphan an unassigned variable outside the heap.
    check_search_budgets();
    const int v = pick_branch();
    if (v >= 0) {
      ++stats_.decisions;
      push_level();
      const bool ok = enqueue(mk_lit(v, decide_phase_negated(v)), kReasonNone);
      (void)ok;  // unassigned by construction
      continue;
    }
    // Full boolean assignment: complete (or refute) the integer domains.
    ++stats_.leaves_reached;
    const SatResult leaf = int_complete();
    if (leaf == SatResult::Sat) return SatResult::Sat;
    if (leaf == SatResult::Unknown) saw_unknown_ = true;
    else ++stats_.leaves_refuted;
    // Block this combination of theory atoms. For a refuted leaf the
    // blocking clause is a theory lemma — the atoms of the simplex's
    // refutation; for an Unknown leaf it is the full asserted-atom set,
    // which is *not* entailed and never logged — it (and everything learned
    // after it) is tainted and the final Unsat degrades to Unknown.
    theory_conflict_.clear();
    if (!sconf_rows_.empty()) {
      emit_simplex_conflict();
    } else {
      collect_theory_lits(theory_conflict_, /*level0=*/false);
    }
    if (!resolve_conflict(theory_conflict_.data(), theory_conflict_.size(),
                          -1)) {
      return finish_unsat();
    }
    maybe_restart_or_reduce();
    check_search_budgets();
  }
}

SatResult SearchContext::solve(const CheckJob& job) {
  job_ = &job;
  deadline_active_ = job.deadline_active;
  deadline_ = job.deadline;
  ops_ = 0;
  slow_polls_ = 0;
  check_conflict_base_ = stats_.conflicts;
  check_decision_base_ = stats_.decisions;
  check_prop_base_ = stats_.propagations;
  last_stop_ = util::StopReason::kNone;
  sync_problem();
  SatResult out = SatResult::Unknown;
  // Every governed unwind — deadline, cancel, budget ceiling, injected
  // fault — originates at a cancellation point (bump_ops / the simplex
  // tick / the theory-check entry), so they all ride the same
  // exception-safety path and leave the context reusable: the next
  // run_check starts with reset_search().
  try {
    out = run_check();
  } catch (const util::Stop& s) {
    out = SatResult::Unknown;
    last_stop_ = s.reason;
  } catch (const util::fault::FaultInjected&) {
    out = SatResult::Unknown;
    last_stop_ = util::StopReason::kFaultInjected;
  }
  if (out == SatResult::Unknown && last_stop_ == util::StopReason::kNone) {
    // Honest degradation (integer-open leaves): still never silent.
    last_stop_ = util::StopReason::kDegraded;
  }
  // The simplex counts its own work; one sync covers every exit, a stopped
  // check's pivots included.
  stats_.theory_pivots = stx_.pivots();
  stats_.farkas_explanations = stx_.explanations();
  if (audit_enabled()) {
    // A stop can unwind between an interval crossing and its
    // explanation, leaving the crossed interval until the next reset —
    // checked relaxed.
    Auditor::check_deep(*this, "check-boundary", /*bounds_settled=*/false);
  }
  stats_.learned_kept = num_learned_live_;
  stats_.arena_bytes = arena_.bytes();  // gauge, like learned_kept
  if (stats_.arena_bytes > stats_.peak_arena_bytes) {
    stats_.peak_arena_bytes = stats_.arena_bytes;
  }
  // Transient per-check state is reset on *every* exit path: a stale
  // deadline or job pointer leaking into the next solve would spuriously
  // time out an untimed check (or dangle into freed assumptions).
  deadline_active_ = false;
  deadline_ = Clock::time_point{};
  ops_ = 0;
  job_ = nullptr;
  return out;
}

}  // namespace advocat::smt::native
