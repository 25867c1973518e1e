// In-tree CDCL(T) solver for the linear-integer encodings.
// See native_solver.hpp for the algorithm overview and smt/theory.hpp for
// the seam between the two theory layers.
//
// Since PR 6 this file holds the *translation and orchestration* half of
// the solver: Tseitin translation of the assertion DAG into the shared
// problem (native::SharedProblem) and the dispatch of checks onto
// per-worker search engines (native::SearchContext). The search
// algorithm itself — CDCL with first-UIP learning, EVSIDS, Luby
// restarts, interval propagation with provenance explanations, the exact
// simplex — lives in search_context.cpp.
//
// Learned clauses persist across check() calls: every root assertion is
// a level-0 fact, while per-check assumptions (and a worker's cube) are
// placed on their own decision levels (MiniSat assumption style), so a
// learned clause can only depend on them by *mentioning* their negations.
// Every learned clause is therefore entailed by the root assertions alone
// and stays valid once the assumptions are retracted — and, by the same
// argument, valid on every parallel worker sharing the translation, which
// is what makes cross-worker clause exchange and harvest-back sound.
// Tainted clauses (learned after an Unknown-degraded leaf) are the one
// exception; they are purged at check boundaries and never exported.
//
// Parallel modes (threads > 1, default ADVOCAT_THREADS):
//  - cube-and-conquer: the primary context probes under a conflict
//    budget; if undecided, the top-EVSIDS undecided variables split the
//    search into 2^k cubes solved by seeded ephemeral workers on a
//    static, deterministic schedule.
//  - portfolio (ADVOCAT_PARALLEL=portfolio): diversified workers race on
//    the whole problem (restart pacing, default phase, branching bias).
// Workers share short/low-LBD learned clauses through a sharded exchange
// and their learning is harvested back into the primary context, so the
// PR4 cross-check persistence survives parallel checks. With
// ADVOCAT_DETERMINISTIC=1 the exchange and early cancellation are
// disabled and the cube partition is static, making parallel verdicts
// *and* statistics reproducible run to run. threads == 1 never spawns a
// thread and is bit-identical to the sequential solver.
#include "smt/native_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/audit.hpp"
#include "smt/clause_exchange.hpp"
#include "smt/proof.hpp"
#include "smt/search_context.hpp"
#include "util/budget.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace advocat::smt {
namespace {

using native::Atom;
using native::Auditor;
using native::CertificateInputs;
using native::CheckJob;
using native::ClauseExchange;
using native::Clock;
using native::Lit;
using native::Outcome;
using native::ProofLog;
using native::ProofRecord;
using native::SearchConfig;
using native::SearchContext;
using native::SharedProblem;
using native::StaticRow;
using native::audit_enabled;
using native::mk_lit;
using native::neg;
using native::var_of;

// Conflict budget for the cube-probe run on the primary context: easy
// checks (the common incremental-probe case) finish inside the budget
// without ever spawning a thread; hard ones exit with hot EVSIDS
// variables to cube on.
constexpr std::uint64_t kCubeProbeConflicts = 1000;
// At most 2^kMaxCubeVars cubes.
constexpr std::size_t kMaxCubeVars = 8;
// Per-worker cap on clauses harvested back into the primary context.
constexpr std::size_t kHarvestCap = 4096;

// Portfolio diversification: per-worker restart pacing (Luby scale).
constexpr std::uint64_t kPortfolioRestartBase[] = {192, 96, 384, 768};

class NativeSolver final : public Solver {
 public:
  explicit NativeSolver(const ExprFactory& factory) : f_(factory) {
    sh_.true_var = new_bvar();
    sh_.def_units.push_back(mk_lit(sh_.true_var, false));
    primary_ = std::make_unique<SearchContext>(sh_, SearchConfig{});
    threads_ = util::env_threads(1);
    deterministic_ = util::env_deterministic();
    const char* mode = std::getenv("ADVOCAT_PARALLEL");
    portfolio_ = mode != nullptr && std::strcmp(mode, "portfolio") == 0;
  }

  void add(ExprId assertion) override { roots_.push_back(assertion); }

  void set_threads(unsigned n) override {
    threads_ = n == 0 ? util::env_threads(1) : std::min(n, 256u);
  }

  void set_deterministic(bool on) override { deterministic_ = on; }

  // Turns proof logging on (or off) for every subsequent check. The stamp
  // counter, session trace, and lemma cache live for the solver's
  // lifetime, so a sink attached before the first check certifies every
  // later Unsat; attaching after checks have run yields certificates
  // honestly marked incomplete (the earlier learning was never logged).
  void set_proof_sink(ProofSink* sink) override {
    Solver::set_proof_sink(sink);
    if (sink != nullptr && primary_log_ == nullptr) {
      primary_log_ = std::make_unique<ProofLog>(&proof_stamp_);
    }
    primary_->set_proof_log(sink != nullptr ? primary_log_.get() : nullptr);
  }

 protected:
  SatResult do_check(const std::vector<ExprId>& assumptions) override {
    CheckJob job;
    const unsigned deadline_ms = budget().deadline_ms;
    job.deadline_active = deadline_ms > 0;
    if (job.deadline_active) {
      job.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
    }
    // Null budget pointer when the session has no ceilings: the search's
    // cancellation point then pays one pointer test, and verdicts and
    // statistics stay bit-identical to a build without governance.
    job.budget = budget().unlimited() ? nullptr : &budget();
    job.cancel = cancel_flag();
    last_stop_ = util::StopReason::kNone;
    for (std::size_t i = root_lits_.size(); i < roots_.size(); ++i) {
      root_lits_.push_back(translate_bool(roots_[i]));
    }
    // Assumption literals reuse the same memoized translation, so repeated
    // probes over the same expressions add no clauses after the first.
    std::vector<Lit> assumption_lits;
    assumption_lits.reserve(assumptions.size());
    for (ExprId a : assumptions) assumption_lits.push_back(translate_bool(a));
    last_cubes_.clear();
    SatResult result = SatResult::Unsat;
    if (!trivially_unsat_) {
      job.roots = &root_lits_;
      job.assumption_lits = &assumption_lits;
      try {
        result = threads_ <= 1 ? adopt(*primary_, primary_->solve(job))
                               : solve_parallel(job);
      } catch (const util::fault::FaultInjected&) {
        // Safety net for injected faults delivered outside a solve() (the
        // search catches its own); the session state is untouched at those
        // points, so degrade to Unknown and stay usable.
        result = SatResult::Unknown;
        last_stop_ = util::StopReason::kFaultInjected;
      }
      // A check that ran unlogged leaves learned material the trace
      // cannot reconstruct: every later certificate is marked incomplete.
      if (proof_sink() == nullptr || primary_log_ == nullptr) {
        unlogged_checks_ = true;
      }
    }
    if (result == SatResult::Unsat && proof_sink() != nullptr) {
      emit_certificate(assumption_lits);
    }
    refresh_stats();
    return result;
  }

 private:
  // ------------------------------------------------------------ translation

  int new_bvar() {
    sh_.atom_of_var.push_back(-1);
    return sh_.num_bvars++;
  }

  int int_var(ExprId id, const std::string& name) {
    auto it = int_index_.find(id);
    if (it != int_index_.end()) return it->second;
    const int v = static_cast<int>(sh_.int_names.size());
    sh_.int_names.push_back(name);
    int_index_.emplace(id, v);
    return v;
  }

  void add_clause(std::vector<Lit> c) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    for (std::size_t i = 0; i + 1 < c.size(); ++i) {
      if (c[i + 1] == (c[i] ^ 1)) return;  // tautology: l and ¬l adjacent
    }
    if (c.empty()) {
      trivially_unsat_ = true;
    } else if (c.size() == 1) {
      sh_.def_units.push_back(c[0]);
    } else {
      sh_.clauses.push(c);
    }
  }

  void linearize(ExprId id, std::int64_t scale,
                 std::map<int, std::int64_t>& coeffs, std::int64_t& constant) {
    const Node& n = f_.node(id);
    switch (n.op) {
      case Op::IntConst: constant += scale * n.value; break;
      case Op::IntVar: coeffs[int_var(id, n.name)] += scale; break;
      case Op::Add:
        for (ExprId k : n.kids) linearize(k, scale, coeffs, constant);
        break;
      case Op::MulConst:
        linearize(n.kids[0], scale * n.value, coeffs, constant);
        break;
      default:
        throw std::logic_error("native solver: expected integer expression");
    }
  }

  using Terms = std::vector<std::pair<int, std::int64_t>>;

  static std::string form_key(char op, const Terms& terms,
                              std::int64_t bound) {
    std::string key(1, op);
    for (const auto& [v, c] : terms) {
      key += std::to_string(v) + "*" + std::to_string(c) + ",";
    }
    return key + std::to_string(bound);
  }

  static Terms negated(Terms terms) {
    for (auto& t : terms) t.second = -t.second;
    return terms;
  }

  Lit translate_atom(const Node& n) {
    std::map<int, std::int64_t> coeffs;
    std::int64_t constant = 0;
    linearize(n.kids[0], 1, coeffs, constant);
    linearize(n.kids[1], -1, coeffs, constant);
    Terms terms;
    for (const auto& [v, c] : coeffs) {
      if (c != 0) terms.emplace_back(v, c);
    }
    std::int64_t bound = -constant;
    if (n.op == Op::Le) return le_atom(std::move(terms), bound);

    // Σ c·x = b is a gate over the bound pair Σ ≤ b and −Σ ≤ −b, so no
    // disequality ever reaches the theory: a false gate just asks the
    // boolean search to refute one of the two bounds.
    if (terms.empty()) return mk_lit(sh_.true_var, bound != 0);
    // Divisibility cut at translation time: Σ c·x = b with gcd(c) ∤ b has
    // no integer solution, so the equality is the constant false — no
    // search ever has to discover it.
    std::int64_t g = 0;
    for (const auto& [v, c] : terms) g = std::gcd(g, c < 0 ? -c : c);
    if (g > 1 && bound % g != 0) return mk_lit(sh_.true_var, true);
    if (terms[0].second < 0) {  // canonical sign for dedup
      terms = negated(std::move(terms));
      bound = -bound;
    }
    std::string key = form_key('=', terms, bound);
    const auto it = atom_index_.find(key);
    if (it != atom_index_.end()) return mk_lit(it->second, false);
    const Lit le = le_atom(terms, bound);
    const Lit ge = le_atom(negated(terms), -bound);
    const Lit gate = mk_lit(new_bvar(), false);
    add_clause({neg(gate), le});
    add_clause({neg(gate), ge});
    add_clause({neg(le), neg(ge), gate});
    atom_index_.emplace(std::move(key), var_of(gate));
    return gate;
  }

  // The theory atom Σ terms ≤ bound, hash-consed by its exact form.
  Lit le_atom(Terms terms, std::int64_t bound) {
    if (terms.empty()) return mk_lit(sh_.true_var, bound < 0);
    std::string key = form_key('<', terms, bound);
    const auto it = atom_index_.find(key);
    if (it != atom_index_.end()) return mk_lit(it->second, false);
    const int v = new_bvar();
    const int ai = static_cast<int>(sh_.atoms.size());
    sh_.atom_of_var[static_cast<std::size_t>(v)] = ai;
    sh_.atom_var.push_back(v);
    for (const auto& [iv, c] : terms) {
      (void)c;
      if (static_cast<std::size_t>(iv) >= sh_.atom_occ.size()) {
        sh_.atom_occ.resize(static_cast<std::size_t>(iv) + 1);
      }
      sh_.atom_occ[static_cast<std::size_t>(iv)].push_back(ai);
    }
    Atom a;
    a.negation = StaticRow{negated(terms), -bound - 1};  // ¬(Σ ≤ b)
    a.row = StaticRow{std::move(terms), bound};
    sh_.atoms.push_back(std::move(a));
    atom_index_.emplace(std::move(key), v);
    return mk_lit(v, false);
  }

  Lit translate_bool(ExprId id) {
    auto memo = lit_memo_.find(id);
    if (memo != lit_memo_.end()) return memo->second;
    const Node& n = f_.node(id);
    Lit res = 0;
    switch (n.op) {
      case Op::BoolConst: res = mk_lit(sh_.true_var, n.value == 0); break;
      case Op::BoolVar: {
        const int v = new_bvar();
        sh_.named_bools.emplace_back(v, n.name);
        res = mk_lit(v, false);
        break;
      }
      case Op::Not: res = neg(translate_bool(n.kids[0])); break;
      case Op::And: {
        const Lit g = mk_lit(new_bvar(), false);
        std::vector<Lit> big{g};
        for (ExprId kid : n.kids) {
          const Lit k = translate_bool(kid);
          add_clause({neg(g), k});
          big.push_back(neg(k));
        }
        add_clause(std::move(big));
        res = g;
        break;
      }
      case Op::Or: {
        const Lit g = mk_lit(new_bvar(), false);
        std::vector<Lit> big{neg(g)};
        for (ExprId kid : n.kids) {
          const Lit k = translate_bool(kid);
          add_clause({g, neg(k)});
          big.push_back(k);
        }
        add_clause(std::move(big));
        res = g;
        break;
      }
      case Op::Implies: {
        const Lit a = translate_bool(n.kids[0]);
        const Lit b = translate_bool(n.kids[1]);
        const Lit g = mk_lit(new_bvar(), false);  // g ↔ (¬a ∨ b)
        add_clause({neg(g), neg(a), b});
        add_clause({g, a});
        add_clause({g, neg(b)});
        res = g;
        break;
      }
      case Op::Iff: {
        const Lit a = translate_bool(n.kids[0]);
        const Lit b = translate_bool(n.kids[1]);
        const Lit g = mk_lit(new_bvar(), false);  // g ↔ (a ↔ b)
        add_clause({neg(g), neg(a), b});
        add_clause({neg(g), a, neg(b)});
        add_clause({g, a, b});
        add_clause({g, neg(a), neg(b)});
        res = g;
        break;
      }
      case Op::Eq:
      case Op::Le:
        res = translate_atom(n);
        break;
      default:
        throw std::logic_error("native solver: expected boolean expression");
    }
    lit_memo_.emplace(id, res);
    return res;
  }

  // ---------------------------------------------------------- orchestration

  static SatResult from_outcome(Outcome out) {
    switch (out) {
      case Outcome::Sat: return SatResult::Sat;
      case Outcome::Unsat: return SatResult::Unsat;
      default: return SatResult::Unknown;  // Unknown / Budget / Cancelled
    }
  }

  /// Publishes a context's result (its model, if any) into the Solver base.
  SatResult adopt(const SearchContext& ctx, Outcome out) {
    if (out == Outcome::Sat) store_model(Model(ctx.model()));
    const SatResult r = from_outcome(out);
    if (r == SatResult::Unknown) {
      // A Budget outcome reaching adoption means a conflict ceiling ended
      // the check; otherwise the context recorded why it stopped.
      last_stop_ = util::combine(last_stop_,
                                 out == Outcome::Budget
                                     ? util::StopReason::kConflictBudget
                                     : ctx.stop_reason());
      if (last_stop_ == util::StopReason::kNone) {
        last_stop_ = util::StopReason::kDegraded;
      }
    }
    return r;
  }

  /// Serializes (and theory-certifies) the refutation this check just
  /// produced and hands it to the sink. The session trace is cumulative —
  /// learned clauses persist across checks, so every certificate replays
  /// the whole session's logged learning; stamps restore one coherent
  /// order over the merged per-worker logs.
  void emit_certificate(const std::vector<Lit>& assumption_lits) {
    if (primary_log_ != nullptr) primary_log_->drain_into(trace_);
    std::sort(trace_.begin(), trace_.end(),
              [](const ProofRecord& a, const ProofRecord& b) {
                return a.stamp < b.stamp;
              });
    CertificateInputs in;
    in.sh = &sh_;
    in.trace = &trace_;
    in.assume_lits = root_lits_;
    in.assume_lits.insert(in.assume_lits.end(), assumption_lits.begin(),
                          assumption_lits.end());
    in.cubes = std::move(last_cubes_);
    last_cubes_.clear();
    in.trivially_unsat = trivially_unsat_;
    in.attached_mid_session = unlogged_checks_;
    Certificate cert;
    try {
      cert = native::build_certificate(in, lemma_cache_);
    } catch (...) {
      // Certification is best-effort under fault injection / allocation
      // pressure: the verdict stands (it was reached before this point),
      // so report an honestly unverifiable certificate rather than let
      // the failure masquerade as an Unknown check result.
      cert = Certificate{};
      cert.mode = "attested";
      cert.complete = false;
      cert.reason = "native certificate construction aborted";
      cert.text = "advocat-proof 1\nmode attested native-aborted\nqed\n";
      cert.proof_bytes = cert.text.size();
    }
    proof_sink()->on_unsat_certificate(cert);
  }

  /// Session stats = the primary context's lifetime counters plus the
  /// accumulated counters of every ephemeral worker that ever ran
  /// (extra_), with the gauges (learned_kept, threads) from the present.
  void refresh_stats() {
    SolveStats s = primary_->stats();
    s.mean_conflict_lits = merged_mean_conflict_lits(s, extra_);
    s.decisions += extra_.decisions;
    s.conflicts += extra_.conflicts;
    s.conflicts_clause += extra_.conflicts_clause;
    s.conflicts_interval_farkas += extra_.conflicts_interval_farkas;
    s.conflicts_interval_provenance += extra_.conflicts_interval_provenance;
    s.leaves_reached += extra_.leaves_reached;
    s.leaves_refuted += extra_.leaves_refuted;
    s.propagations += extra_.propagations;
    s.restarts += extra_.restarts;
    s.learned_clauses += extra_.learned_clauses;
    s.deleted_clauses += extra_.deleted_clauses;
    s.learned_hits += extra_.learned_hits;
    s.theory_pivots += extra_.theory_pivots;
    s.farkas_explanations += extra_.farkas_explanations;
    s.clauses_exported += extra_.clauses_exported;
    s.clauses_imported += extra_.clauses_imported;
    s.arena_compactions += extra_.arena_compactions;
    s.learned_kept = primary_->learned_live();
    s.threads = threads_;
    // arena_bytes stays the primary's gauge (workers are ephemeral), but
    // the peak high-water mark covers every context that ever ran.
    if (extra_.peak_arena_bytes > s.peak_arena_bytes) {
      s.peak_arena_bytes = extra_.peak_arena_bytes;
    }
    s.stop_reason = last_stop_;
    mutable_stats() = s;
  }

  void accumulate(const SolveStats& w) {
    extra_.mean_conflict_lits = merged_mean_conflict_lits(extra_, w);
    extra_.decisions += w.decisions;
    extra_.conflicts += w.conflicts;
    extra_.conflicts_clause += w.conflicts_clause;
    extra_.conflicts_interval_farkas += w.conflicts_interval_farkas;
    extra_.conflicts_interval_provenance += w.conflicts_interval_provenance;
    extra_.leaves_reached += w.leaves_reached;
    extra_.leaves_refuted += w.leaves_refuted;
    extra_.propagations += w.propagations;
    extra_.restarts += w.restarts;
    extra_.learned_clauses += w.learned_clauses;
    extra_.deleted_clauses += w.deleted_clauses;
    extra_.learned_hits += w.learned_hits;
    extra_.theory_pivots += w.theory_pivots;
    extra_.farkas_explanations += w.farkas_explanations;
    extra_.clauses_exported += w.clauses_exported;
    extra_.clauses_imported += w.clauses_imported;
    extra_.arena_compactions += w.arena_compactions;
    if (w.peak_arena_bytes > extra_.peak_arena_bytes) {
      extra_.peak_arena_bytes = w.peak_arena_bytes;  // gauge: max, not sum
    }
  }

  /// Harvests worker learning back into the primary context in worker
  /// order (deterministic when the workers were): exportable clauses,
  /// deduplicated against each other, plus learned unit consequences.
  /// Sound for the same reason the exchange is — non-tainted learned
  /// clauses are entailed by the permanent problem alone.
  void harvest(const std::vector<std::unique_ptr<SearchContext>>& workers) {
    std::vector<std::vector<Lit>> clauses;
    std::vector<Lit> units;
    for (const auto& w : workers) {
      w->harvest_into(clauses, kHarvestCap);
      w->harvest_units_into(units);
      accumulate(w->stats());
    }
    std::set<std::vector<Lit>> seen;
    std::vector<std::vector<Lit>> unique_clauses;
    unique_clauses.reserve(clauses.size());
    for (std::vector<Lit>& c : clauses) {
      std::vector<Lit> key = c;
      std::sort(key.begin(), key.end());
      if (seen.insert(std::move(key)).second) {
        unique_clauses.push_back(std::move(c));
      }
    }
    primary_->adopt_clauses(unique_clauses);
    primary_->adopt_units(units);
  }

  /// Builds a fresh worker seeded with everything the session learned.
  std::unique_ptr<SearchContext> make_worker(unsigned id,
                                             ClauseExchange* exchange,
                                             const std::atomic<bool>* stop,
                                             bool diversify) {
    SearchConfig cfg;
    cfg.id = id;
    cfg.exchange = exchange;
    cfg.stop = stop;
    cfg.is_worker = true;  // worker_kill fault site targets only these
    if (diversify && id > 0) {
      cfg.restart_base = kPortfolioRestartBase[id % 4];
      cfg.invert_default_phase = (id & 1) != 0;
      cfg.reverse_atom_bias = (id & 2) != 0;
    }
    auto w = std::make_unique<SearchContext>(sh_, cfg);
    w->seed_from(*primary_);
    return w;
  }

  /// Parallel check. Portfolio mode races diversified workers on the
  /// whole problem; cube mode (default) first probes on the primary
  /// context under a conflict budget — deciding easy checks without
  /// spawning anything — then splits on the hottest undecided variables.
  /// Verdict combination is order-independent (any Sat wins; Unsat needs
  /// every cube), so the verdict is reproducible even when the schedule
  /// is not; in determinism mode (no exchange, no early cancellation,
  /// static schedule) the statistics are reproducible too.
  SatResult solve_parallel(CheckJob& job) {
    ClauseExchange exchange;
    std::atomic<bool> stop{false};
    ClauseExchange* xch = deterministic_ ? nullptr : &exchange;
    const std::atomic<bool>* stop_flag = deterministic_ ? nullptr : &stop;

    std::vector<std::vector<Lit>> cubes;
    if (!portfolio_) {
      CheckJob probe = job;
      probe.conflict_budget = kCubeProbeConflicts;
      std::size_t want = 1;
      while ((std::size_t{1} << want) < threads_ && want < kMaxCubeVars) {
        ++want;
      }
      probe.hot_k = std::min(want + 1, kMaxCubeVars);
      const Outcome out = primary_->solve(probe);
      if (out != Outcome::Budget) return adopt(*primary_, out);
      const std::vector<int>& hot = primary_->hot_vars();
      for (std::size_t m = 0; m < (std::size_t{1} << hot.size()); ++m) {
        std::vector<Lit> cube;
        cube.reserve(hot.size());
        for (std::size_t b = 0; b < hot.size(); ++b) {
          cube.push_back(mk_lit(hot[b], (m >> b & 1) != 0));
        }
        cubes.push_back(std::move(cube));
      }
    }
    const bool cube_mode = !portfolio_ && cubes.size() > 1;
    if (!cube_mode && !portfolio_) {
      // Nothing to split on (the probe found no open variables): finish
      // the check on the primary context without a budget.
      return adopt(*primary_, primary_->solve(job));
    }

    const std::size_t tasks = cube_mode ? cubes.size() : threads_;
    const unsigned width =
        static_cast<unsigned>(std::min<std::size_t>(threads_, tasks));
    std::vector<std::unique_ptr<SearchContext>> workers;
    workers.reserve(width);
    const bool logging = proof_sink() != nullptr && primary_log_ != nullptr;
    std::vector<std::unique_ptr<ProofLog>> worker_logs;
    for (unsigned t = 0; t < width; ++t) {
      workers.push_back(make_worker(t, xch, stop_flag, /*diversify=*/
                                    portfolio_ || !deterministic_));
      if (logging) {
        // Each worker appends to its own log (no sharing, no locking);
        // the shared atomic stamp counter makes the logs merge into one
        // coherent order at the join below.
        worker_logs.push_back(std::make_unique<ProofLog>(&proof_stamp_));
        workers.back()->set_proof_log(worker_logs.back().get());
      }
    }
    std::vector<CheckJob> jobs(tasks, job);
    std::vector<Outcome> outcomes(tasks, Outcome::Unknown);
    std::vector<util::StopReason> reasons(tasks, util::StopReason::kNone);
    // parallel_for_static pins task i to pool worker i % width, and each
    // pool worker runs its tasks in order — so worker context i % width
    // is never shared between live tasks, and in determinism mode the
    // whole execution is a pure function of (problem, threads).
    util::parallel_for_static(tasks, width, [&](std::size_t i) {
      if (cube_mode) jobs[i].cube = &cubes[i];
      SearchContext& ctx = *workers[i % width];
      const Outcome out = ctx.solve(jobs[i]);
      outcomes[i] = out;
      // Captured per task, right here: the same context runs several
      // tasks, and reading ctx.stop_reason() after the join would only
      // see each worker's *last* reason (losing, e.g., an injected
      // worker kill that an uneventful later cube overwrote).
      reasons[i] = ctx.stop_reason();
      if (stop_flag != nullptr) {
        // Early cancellation: a Sat decides the whole check in cube
        // mode; any definitive verdict decides it in portfolio mode.
        if (out == Outcome::Sat ||
            (!cube_mode && out == Outcome::Unsat)) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
    });
    // All workers joined: merge their proof logs into the session trace
    // (emit_certificate stamp-sorts before serializing).
    for (const auto& wl : worker_logs) wl->drain_into(trace_);

    // Combine: order-independent over the outcome multiset.
    SatResult verdict;
    std::size_t decider = tasks;
    if (cube_mode) {
      bool all_unsat = true;
      for (std::size_t i = 0; i < tasks; ++i) {
        if (outcomes[i] == Outcome::Sat) {
          decider = i;
          break;
        }
        if (outcomes[i] != Outcome::Unsat) all_unsat = false;
      }
      if (decider < tasks) {
        verdict = SatResult::Sat;
      } else if (all_unsat) {
        verdict = SatResult::Unsat;
        // The certificate must close the case split: record the refuted
        // cubes so the serializer can fold ¬cube clauses down to empty.
        last_cubes_ = std::move(cubes);
      } else {
        verdict = SatResult::Unknown;
      }
    } else {
      verdict = SatResult::Unknown;
      for (std::size_t i = 0; i < tasks; ++i) {
        if (outcomes[i] == Outcome::Sat) {
          verdict = SatResult::Sat;
          decider = i;
          break;
        }
        if (outcomes[i] == Outcome::Unsat && verdict != SatResult::Sat) {
          if (decider == tasks) decider = i;
          verdict = SatResult::Unsat;
        }
      }
    }
    if (verdict == SatResult::Sat) {
      store_model(Model(workers[decider % width]->model()));
    }
    if (verdict == SatResult::Unknown) {
      // Combine the reasons of every non-definite task (highest priority
      // wins) so the degraded verdict is never silent.
      util::StopReason why = util::StopReason::kNone;
      for (std::size_t i = 0; i < tasks; ++i) {
        if (outcomes[i] == Outcome::Sat || outcomes[i] == Outcome::Unsat) {
          continue;
        }
        why = util::combine(why, outcomes[i] == Outcome::Budget
                                     ? util::StopReason::kConflictBudget
                                     : reasons[i]);
      }
      if (why == util::StopReason::kNone) why = util::StopReason::kDegraded;
      last_stop_ = util::combine(last_stop_, why);
    }
    if (audit_enabled() && xch != nullptr) {
      // All workers have joined: everything published this check is
      // visible, so vet the whole exchange before harvesting it back.
      Auditor::check_exchange(*xch, sh_.num_bvars, "parallel-harvest");
    }
    harvest(workers);
    return verdict;
  }

  const ExprFactory& f_;

  // Translation state (persists across check() calls).
  std::vector<ExprId> roots_;
  std::vector<Lit> root_lits_;  // per translated root, aligned with roots_
  std::unordered_map<ExprId, Lit> lit_memo_;
  std::unordered_map<ExprId, int> int_index_;
  std::unordered_map<std::string, int> atom_index_;
  bool trivially_unsat_ = false;

  // The encoded problem, shared read-only by every search context, and
  // the primary context that persists learning across checks.
  SharedProblem sh_;
  std::unique_ptr<SearchContext> primary_;
  SolveStats extra_;  // accumulated counters of completed workers

  // Proof logging state (alive for the session; empty until a sink is
  // attached). The stamp counter is shared by the primary context's log
  // and every ephemeral worker log so the merged trace totally orders all
  // learning; the lemma cache persists branch-and-cut re-derivations
  // across certificates (incremental sessions re-serialize the cumulative
  // trace on every Unsat).
  std::atomic<std::uint64_t> proof_stamp_{0};
  std::unique_ptr<ProofLog> primary_log_;
  std::vector<ProofRecord> trace_;
  std::vector<std::vector<Lit>> last_cubes_;
  std::unordered_map<std::string, std::string> lemma_cache_;
  bool unlogged_checks_ = false;

  unsigned threads_ = 1;
  bool deterministic_ = false;
  bool portfolio_ = false;
  // Why the in-flight check degraded (kNone while it is on track for a
  // definite verdict); published to SolveStats by refresh_stats().
  util::StopReason last_stop_ = util::StopReason::kNone;
};

}  // namespace

std::unique_ptr<Solver> make_native_solver(const ExprFactory& factory) {
  return std::make_unique<NativeSolver>(factory);
}

}  // namespace advocat::smt
