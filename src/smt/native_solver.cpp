// In-tree CDCL(T) solver for the linear-integer encodings.
// See native_solver.hpp for the algorithm overview and smt/theory.hpp for
// the seam between the two theory layers.
//
// This file holds the *translation* half of the solver: Tseitin
// translation of the assertion DAG into the encoded problem
// (native::SharedProblem), and the dispatch of every check onto the
// session's one search engine (native::SearchContext). The search
// algorithm itself — CDCL with first-UIP learning, EVSIDS, Luby
// restarts, interval propagation with provenance explanations, the exact
// simplex — lives in search_context.cpp.
//
// Learned clauses persist across check() calls: every root assertion is
// a level-0 fact, while per-check assumptions are placed on their own
// decision levels (MiniSat assumption style), so a learned clause can
// only depend on them by *mentioning* their negations. Every learned
// clause is therefore entailed by the root assertions alone and stays
// valid once the assumptions are retracted. Tainted clauses (learned
// after an Unknown-degraded leaf) are the one exception; they are purged
// at check boundaries.
#include "smt/native_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/proof.hpp"
#include "smt/search_context.hpp"
#include "util/budget.hpp"

namespace advocat::smt {
namespace {

using native::Atom;
using native::CheckJob;
using native::Clock;
using native::Lit;
using native::ProofLog;
using native::SearchContext;
using native::SharedProblem;
using native::StaticRow;
using native::mk_lit;
using native::neg;
using native::var_of;

class NativeSolver final : public Solver {
 public:
  explicit NativeSolver(const ExprFactory& factory) : f_(factory) {
    sh_.true_var = new_bvar();
    sh_.def_units.push_back(mk_lit(sh_.true_var, false));
  }

  void add(ExprId assertion) override { roots_.push_back(assertion); }

  // Turns proof logging on (or off) for every subsequent check. The proof
  // log lives for the solver's lifetime, so a sink attached before the
  // first check certifies every later Unsat; attaching after checks have
  // run yields certificates honestly marked incomplete (the earlier
  // learning was never logged).
  void set_proof_sink(ProofSink* sink) override {
    Solver::set_proof_sink(sink);
    search_.set_proof_log(sink != nullptr ? &log_ : nullptr);
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
    for (std::size_t i = root_lits_.size(); i < roots_.size(); ++i) {
      root_lits_.push_back(translate_bool(roots_[i]));
    }
    // Assumption literals reuse the same memoized translation, so repeated
    // probes over the same expressions add no clauses after the first.
    std::vector<Lit> assumption_lits;
    assumption_lits.reserve(assumptions.size());
    for (ExprId a : assumptions) assumption_lits.push_back(translate_bool(a));
    SatResult result = SatResult::Unsat;
    if (!trivially_unsat_) {
      job.roots = &root_lits_;
      job.assumption_lits = &assumption_lits;
      // solve() catches every governed unwind (deadline, cancel, budget,
      // injected fault) and reports it as Unknown with a stop reason.
      result = search_.solve(job);
      if (result == SatResult::Sat) store_model(Model(search_.model()));
      // A check that ran unlogged leaves learned material the trace
      // cannot reconstruct: every later certificate is marked incomplete.
      if (proof_sink() == nullptr) {
        unlogged_checks_ = true;
      }
    }
    if (result == SatResult::Unsat && proof_sink() != nullptr) {
      // Every certificate replays the whole session's logged learning:
      // learned clauses persist across checks.
      std::vector<Lit> assume_lits = root_lits_;
      assume_lits.insert(assume_lits.end(), assumption_lits.begin(),
                         assumption_lits.end());
      proof_sink()->on_unsat_certificate(log_.certificate(
          sh_, assume_lits, trivially_unsat_, unlogged_checks_));
    }
    // Session stats = the search context's lifetime counters, plus why
    // this check stopped (only an Unknown has a reason).
    mutable_stats() = search_.stats();
    mutable_stats().stop_reason = result == SatResult::Unknown
                                      ? search_.stop_reason()
                                      : util::StopReason::kNone;
    return result;
  }

 private:
  // ------------------------------------------------------------ translation

  int new_bvar() {
    sh_.atom_of_var.push_back(-1);
    return sh_.num_bvars++;
  }

  int int_var(ExprId id, std::string_view name) {
    int& slot = memo_slot(int_index_, id);
    if (slot < 0) {
      slot = static_cast<int>(sh_.int_names.size());
      sh_.int_names.emplace_back(name);
    }
    return slot;
  }

  // Per-ExprId memo entry (-1 until set), grown with the factory.
  static int& memo_slot(std::vector<int>& memo, ExprId id) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= memo.size()) memo.resize(i + 1, -1);
    return memo[i];
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

  using Term = std::pair<int, std::int64_t>;
  using Terms = std::vector<Term>;
  // Hash of a linear form's terms (form_index_ keys).
  struct TermsHash {
    std::size_t operator()(const Terms& terms) const {
      std::uint64_t h = 0x9e3779b97f4a7c15ull;
      for (const auto& [v, c] : terms) {
        h = (h ^ static_cast<std::uint32_t>(v)) * 0x100000001b3ull;
        h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ull;
      }
      return h ^ (h >> 29);
    }
  };

  // An atom translated on a form: Σ form ≤ bound (negated: −Σ form ≤
  // bound), or the equality gate Σ form = bound, and its boolean var.
  struct FormAtom {
    std::int64_t bound;
    bool negated;
    bool is_eq;
    int var;
  };

  // Appends scale·id to terms_ (one term per variable occurrence) and its
  // constant part to `constant`.
  void linearize(ExprId id, std::int64_t scale, std::int64_t& constant) {
    const Node n = f_.node(id);
    switch (n.op) {
      case Op::IntConst: constant += scale * n.value; break;
      case Op::IntVar: terms_.emplace_back(int_var(id, n.name), scale); break;
      case Op::Add:
        for (ExprId k : n.kids) linearize(k, scale, constant);
        break;
      case Op::MulConst:
        linearize(n.kids[0], scale * n.value, constant);
        break;
      default:
        throw std::logic_error("native solver: expected integer expression");
    }
  }

  static void negate(std::span<Term> terms) {
    for (Term& t : terms) t.second = -t.second;
  }

  // The id of the sign-canonical linear form of `terms` (leading
  // coefficient positive; numbered when new), and whether `terms` carry
  // the negated sign.
  std::pair<int, bool> form_of(std::span<const Term> terms) {
    const bool negated = terms.front().second < 0;
    canon_.assign(terms.begin(), terms.end());
    if (negated) negate(canon_);
    const auto [it, fresh] = form_index_.try_emplace(
        canon_, static_cast<int>(form_atoms_.size()));
    if (fresh) form_atoms_.emplace_back();
    return {it->second, negated};
  }

  // The boolean var of the atom `key` (var ignored) translated before on
  // form `form`, or -1.
  int find_atom(int form, const FormAtom& key) const {
    for (const FormAtom& a : form_atoms_[static_cast<std::size_t>(form)]) {
      if (a.bound == key.bound && a.negated == key.negated &&
          a.is_eq == key.is_eq) {
        return a.var;
      }
    }
    return -1;
  }

  Lit translate_atom(const Node& n) {
    terms_.clear();
    std::int64_t constant = 0;
    linearize(n.kids[0], 1, constant);
    linearize(n.kids[1], -1, constant);
    // Canonical form: sorted by variable, one term each, no zeros.
    std::sort(terms_.begin(), terms_.end(),
              [](const Term& a, const Term& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < terms_.size();) {
      Term t = terms_[i];
      for (++i; i < terms_.size() && terms_[i].first == t.first; ++i) {
        t.second += terms_[i].second;
      }
      if (t.second != 0) terms_[out++] = t;
    }
    terms_.resize(out);
    std::int64_t bound = -constant;
    if (n.op == Op::Le) return le_atom(terms_, bound);

    // Σ c·x = b is a gate over the bound pair Σ ≤ b and −Σ ≤ −b, so no
    // disequality ever reaches the theory: a false gate just asks the
    // boolean search to refute one of the two bounds.
    if (terms_.empty()) return mk_lit(sh_.true_var, bound != 0);
    // Divisibility cut at translation time: Σ c·x = b with gcd(c) ∤ b has
    // no integer solution, so the equality is the constant false — no
    // search ever has to discover it.
    std::int64_t g = 0;
    for (const auto& [v, c] : terms_) g = std::gcd(g, c < 0 ? -c : c);
    if (g > 1 && bound % g != 0) return mk_lit(sh_.true_var, true);
    if (terms_[0].second < 0) {  // canonical sign for dedup
      negate(terms_);
      bound = -bound;
    }
    const int form = form_of(terms_).first;
    FormAtom key{bound, /*negated=*/false, /*is_eq=*/true, -1};
    if (const int v = find_atom(form, key); v >= 0) return mk_lit(v, false);
    const Lit le = le_atom(terms_, bound);
    negate(terms_);
    const Lit ge = le_atom(terms_, -bound);
    const Lit gate = mk_lit(new_bvar(), false);
    add_clause({neg(gate), le});
    add_clause({neg(gate), ge});
    add_clause({neg(le), neg(ge), gate});
    key.var = var_of(gate);
    form_atoms_[static_cast<std::size_t>(form)].push_back(key);
    return gate;
  }

  // The theory atom Σ terms ≤ bound, hash-consed by its exact form.
  Lit le_atom(std::span<const Term> terms, std::int64_t bound) {
    if (terms.empty()) return mk_lit(sh_.true_var, bound < 0);
    const auto [form, negated] = form_of(terms);
    FormAtom key{bound, negated, /*is_eq=*/false, -1};
    if (const int v = find_atom(form, key); v >= 0) return mk_lit(v, false);
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
    a.row = StaticRow{Terms(terms.begin(), terms.end()), bound};
    a.negation = StaticRow{a.row.terms, -bound - 1};  // ¬(Σ ≤ b)
    negate(a.negation.terms);
    a.form = form;
    sh_.atoms.push_back(std::move(a));
    key.var = v;
    form_atoms_[static_cast<std::size_t>(form)].push_back(key);
    return mk_lit(v, false);
  }

  Lit translate_bool(ExprId id) {
    if (const Lit memo = memo_slot(lit_memo_, id); memo >= 0) return memo;
    const Node n = f_.node(id);
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
    memo_slot(lit_memo_, id) = res;
    return res;
  }

  const ExprFactory& f_;

  // Translation state (persists across check() calls).
  std::vector<ExprId> roots_;
  std::vector<Lit> root_lits_;  // per translated root, aligned with roots_
  std::vector<Lit> lit_memo_;   // by ExprId, -1 until translated
  std::vector<int> int_index_;  // by ExprId, -1 until numbered
  // The one linear-form index, two levels deep: sign-canonical terms to
  // the form id (Atom::form), then that form's few translated atoms.
  std::unordered_map<Terms, int, TermsHash> form_index_;
  std::vector<std::vector<FormAtom>> form_atoms_;  // by form id
  Terms terms_;  // translate_atom's linearization buffer
  Terms canon_;  // form_of's sign-canonical key buffer
  bool trivially_unsat_ = false;

  // The encoded problem and the search context that persists learning
  // across checks (declared after sh_, which it reads).
  SharedProblem sh_;
  SearchContext search_{sh_};

  // The session's proof state (empty until a sink is attached).
  ProofLog log_;
  bool unlogged_checks_ = false;
};

}  // namespace

std::unique_ptr<Solver> make_native_solver(const ExprFactory& factory) {
  return std::make_unique<NativeSolver>(factory);
}

}  // namespace advocat::smt
