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
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/proof.hpp"
#include "smt/search_context.hpp"
#include "util/budget.hpp"

namespace advocat::smt {
namespace {

using native::Atom;
using native::CertificateInputs;
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

  // Turns proof logging on (or off) for every subsequent check. The
  // session trace and lemma cache live for the solver's lifetime, so a
  // sink attached before the first check certifies every later Unsat;
  // attaching after checks have run yields certificates honestly marked
  // incomplete (the earlier learning was never logged).
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
      emit_certificate(assumption_lits);
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

  /// Serializes (and theory-certifies) the refutation this check just
  /// produced and hands it to the sink. The session trace is cumulative —
  /// learned clauses persist across checks, so every certificate replays
  /// the whole session's logged learning.
  void emit_certificate(const std::vector<Lit>& assumption_lits) {
    CertificateInputs in;
    in.sh = &sh_;
    in.trace = &log_.records();
    in.assume_lits = root_lits_;
    in.assume_lits.insert(in.assume_lits.end(), assumption_lits.begin(),
                          assumption_lits.end());
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

  const ExprFactory& f_;

  // Translation state (persists across check() calls).
  std::vector<ExprId> roots_;
  std::vector<Lit> root_lits_;  // per translated root, aligned with roots_
  std::unordered_map<ExprId, Lit> lit_memo_;
  std::unordered_map<ExprId, int> int_index_;
  std::unordered_map<std::string, int> atom_index_;
  bool trivially_unsat_ = false;

  // The encoded problem and the search context that persists learning
  // across checks (declared after sh_, which it reads).
  SharedProblem sh_;
  SearchContext search_{sh_};

  // Proof logging state (alive for the session; empty until a sink is
  // attached). The lemma cache persists branch-and-cut re-derivations
  // across certificates (incremental sessions re-serialize the cumulative
  // trace on every Unsat).
  ProofLog log_;
  std::unordered_map<std::string, std::string> lemma_cache_;
  bool unlogged_checks_ = false;
};

}  // namespace

std::unique_ptr<Solver> make_native_solver(const ExprFactory& factory) {
  return std::make_unique<NativeSolver>(factory);
}

}  // namespace advocat::smt
