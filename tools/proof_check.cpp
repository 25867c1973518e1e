// Certificate validation — see proof_check.hpp for the contract and
// docs/PROOFS.md for the grammar. Structure:
//
//  1. a watched-literal unit-propagation engine over the ingested clauses
//     (problem `in` lines, `assume` hypotheses, verified derivations),
//     with a permanent trail that only grows and a rollback point for the
//     temporary assumptions of each reverse-unit-propagation check;
//  2. an exact-integer interval tightener (tighten() below) that MUST stay
//     behaviorally identical to the certifier's copy in src/smt/proof.cpp
//     — rows in order, terms in order, Chvátal–Gomory rounding, stop at
//     the first bound crossing — so a proof step can reference derived
//     bounds as `lo<v>` / `hi<v>` without serializing their derivation;
//  3. a recursive-descent verifier for lemma proof bodies: `f` Farkas
//     combinations re-summed in exact rational arithmetic, and `s … alt …
//     join` single-variable splits (integer tautologies, so any split is
//     admissible).
#include "proof_check.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bigint.hpp"
#include "util/rational.hpp"

namespace advocat::proofcheck {
namespace {

using util::BigInt;
using util::Rational;

// ----------------------------------------------------------- arithmetic

// floor(a/b) for b > 0 (BigInt division truncates toward zero).
BigInt floor_div_big(const BigInt& a, const BigInt& b) {
  BigInt q = a / b;
  if (!(a % b).is_zero() && a.is_negative()) q -= BigInt(1);
  return q;
}

struct Ineq {
  std::vector<std::pair<int, std::int64_t>> terms;
  BigInt bound;
};

struct VarBound {
  bool has = false;
  BigInt val;
};

struct CertState {
  std::vector<VarBound> lo, hi;
};

constexpr int kTightenPasses = 64;

// Interval tightening to fixpoint (or pass budget) with integer rounding.
// Returns the crossed variable on contradiction, -1 otherwise. Lockstep
// twin of tighten() in src/smt/proof.cpp — do not "improve" one side.
int tighten(const std::vector<Ineq>& rows, CertState& st) {
  for (int pass = 0; pass < kTightenPasses; ++pass) {
    bool changed = false;
    for (const Ineq& r : rows) {
      for (std::size_t ti = 0; ti < r.terms.size(); ++ti) {
        const int v = r.terms[ti].first;
        const std::int64_t c = r.terms[ti].second;
        BigInt rest(0);
        bool open = false;
        for (std::size_t tj = 0; tj < r.terms.size(); ++tj) {
          if (tj == ti) continue;
          const int u = r.terms[tj].first;
          const std::int64_t cu = r.terms[tj].second;
          const VarBound& b = cu > 0 ? st.lo[static_cast<std::size_t>(u)]
                                     : st.hi[static_cast<std::size_t>(u)];
          if (!b.has) {
            open = true;
            break;
          }
          rest += BigInt(cu) * b.val;
        }
        if (open) continue;
        const BigInt avail = r.bound - rest;  // c·v ≤ avail
        if (c > 0) {
          const BigInt nb = floor_div_big(avail, BigInt(c));
          VarBound& hb = st.hi[static_cast<std::size_t>(v)];
          if (!hb.has || nb < hb.val) {
            hb.has = true;
            hb.val = nb;
            changed = true;
          }
        } else {
          const BigInt nb = -floor_div_big(avail, BigInt(-c));
          VarBound& lb = st.lo[static_cast<std::size_t>(v)];
          if (!lb.has || nb > lb.val) {
            lb.has = true;
            lb.val = nb;
            changed = true;
          }
        }
        const VarBound& lb = st.lo[static_cast<std::size_t>(v)];
        const VarBound& hb = st.hi[static_cast<std::size_t>(v)];
        if (lb.has && hb.has && lb.val > hb.val) return v;
      }
    }
    if (!changed) break;
  }
  return -1;
}

// ---------------------------------------------------------------- parsing

bool is_int_token(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i])) == 0) return false;
  }
  return true;
}

// ---------------------------------------------------- propagation engine

// Two-watched-literal unit propagation over DIMACS-signed clauses. The
// permanent trail grows as clauses are ingested; rup checks push
// temporary assumptions and roll back to the permanent mark.
class PropEngine {
 public:
  void set_num_vars(std::size_t n) {
    val_.assign(n + 1, 0);
    watches_.assign(2 * (n + 1), {});
  }

  [[nodiscard]] std::size_t num_vars() const {
    return val_.empty() ? 0 : val_.size() - 1;
  }

  [[nodiscard]] bool conflicted() const { return conflict_; }

  [[nodiscard]] int value(int lit) const {
    const int v = lit > 0 ? lit : -lit;
    const int a = val_[static_cast<std::size_t>(v)];
    return lit > 0 ? a : -a;
  }

  /// Ingests a clause as permanently true and propagates its
  /// consequences. A clause already satisfied by the permanent trail is
  /// dropped (the trail only grows, so it can never propagate).
  void add_clause(std::vector<int> lits) {
    if (conflict_) return;
    // Partition: non-false literals first.
    std::size_t nf = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (value(lits[i]) == 1) return;  // permanently satisfied
      if (value(lits[i]) == 0) std::swap(lits[nf++], lits[i]);
    }
    if (nf == 0) {
      conflict_ = true;  // empty or all-false: the DB derived ⊥
      return;
    }
    if (nf == 1) {
      enqueue(lits[0]);
      if (!conflict_ && !propagate()) conflict_ = true;
      return;
    }
    const int ci = static_cast<int>(clauses_.size());
    clauses_.push_back(std::move(lits));
    watches_[idx(clauses_.back()[0])].push_back(ci);
    watches_[idx(clauses_.back()[1])].push_back(ci);
  }

  /// Reverse-unit-propagation check: DB ∧ ¬clause propagates to ⊥.
  /// Leaves the permanent state untouched.
  [[nodiscard]] bool rup_holds(const std::vector<int>& lits) {
    if (conflict_) return true;
    const std::size_t mark = trail_.size();
    bool refuted = false;
    for (const int l : lits) {
      if (value(l) == 1) {  // assuming ¬l contradicts the current state
        refuted = true;
        break;
      }
      if (value(l) == 0) {
        assign(-l);
      }
    }
    if (!refuted) refuted = !propagate();
    // Roll back the temporary assumptions and their consequences.
    for (std::size_t t = mark; t < trail_.size(); ++t) {
      val_[static_cast<std::size_t>(std::abs(trail_[t]))] = 0;
    }
    trail_.resize(mark);
    qhead_ = mark;
    return refuted;
  }

  [[nodiscard]] std::size_t clause_count() const { return clauses_.size(); }

 private:
  static std::size_t idx(int lit) {
    const int v = lit > 0 ? lit : -lit;
    return 2 * static_cast<std::size_t>(v) + (lit < 0 ? 1 : 0);
  }

  void assign(int lit) {
    val_[static_cast<std::size_t>(std::abs(lit))] =
        static_cast<signed char>(lit > 0 ? 1 : -1);
    trail_.push_back(lit);
  }

  void enqueue(int lit) {
    if (value(lit) == -1) {
      conflict_ = true;
      return;
    }
    if (value(lit) == 0) assign(lit);
  }

  // Returns false on conflict; the trail then still holds the partial
  // propagation (the caller rolls back or latches the conflict).
  bool propagate() {
    while (qhead_ < trail_.size()) {
      const int fl = -trail_[qhead_++];  // literal that just became false
      std::vector<int>& ws = watches_[idx(fl)];
      std::size_t j = 0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        const int ci = ws[i];
        std::vector<int>& c = clauses_[static_cast<std::size_t>(ci)];
        if (c[0] == fl) std::swap(c[0], c[1]);
        if (value(c[0]) == 1) {  // satisfied: keep the watch
          ws[j++] = ci;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.size(); ++k) {
          if (value(c[k]) != -1) {
            std::swap(c[1], c[k]);
            watches_[idx(c[1])].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[j++] = ci;  // clause stays watched here: unit or conflicting
        if (value(c[0]) == -1) {
          for (++i; i < ws.size(); ++i) ws[j++] = ws[i];
          ws.resize(j);
          return false;
        }
        assign(c[0]);
      }
      ws.resize(j);
    }
    return true;
  }

  std::vector<signed char> val_;          // var -> 0 / +1 / -1
  std::vector<std::vector<int>> watches_;  // lit idx -> clause indices
  std::vector<std::vector<int>> clauses_;
  std::vector<int> trail_;
  std::size_t qhead_ = 0;
  bool conflict_ = false;
};

// -------------------------------------------------------------- checker

struct AtomInfo {
  bool present = false;
  std::int64_t bound = 0;
  std::vector<std::pair<int, std::int64_t>> terms;
};

class Checker {
 public:
  CheckResult run(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    bool saw_qed = false;
    while (std::getline(in, line)) {
      ++lineno_;
      std::istringstream ls(line);
      std::string head;
      if (!(ls >> head)) continue;  // blank line
      if (saw_qed) return fail("parse-error", "content after qed");
      if (lineno_ == 1) {
        std::string ver;
        if (head != "advocat-proof" || !(ls >> ver) || ver != "1") {
          return fail("bad-header", "expected 'advocat-proof 1'");
        }
        continue;
      }
      if (head == "mode") {
        if (!(ls >> res_.mode)) return fail("bad-header", "missing mode");
        if (res_.mode != "native" && res_.mode != "attested") {
          return fail("bad-header", "unknown mode '" + res_.mode + "'");
        }
        continue;
      }
      if (res_.mode.empty()) return fail("bad-header", "mode line missing");
      if (res_.mode == "attested") {
        // An attestation carries no replayable evidence: only the closing
        // qed is expected.
        if (head == "qed") {
          saw_qed = true;
          continue;
        }
        return fail("parse-error", "unexpected '" + head + "' in attested");
      }
      if (head == "nvars") {
        std::size_t n = 0;
        if (!(ls >> n)) return fail("parse-error", "bad nvars");
        engine_.set_num_vars(n);
        atoms_.assign(n + 1, AtomInfo{});
        continue;
      }
      if (head == "nints") {
        if (!(ls >> nints_)) return fail("parse-error", "bad nints");
        continue;
      }
      if (head == "atom") {
        if (!parse_atom(ls)) return result();
        continue;
      }
      if (head == "in" || head == "assume" || head == "rup" ||
          head == "del") {
        std::vector<int> lits;
        if (!parse_lits(ls, lits)) return result();
        if (head == "del") continue;  // advisory: every clause is kept
        if (head == "rup") {
          ++res_.steps;
          if (!engine_.rup_holds(lits)) {
            return fail("rup-failed", "line " + std::to_string(lineno_));
          }
        }
        engine_.add_clause(std::move(lits));
        ++res_.clauses;
        continue;
      }
      if (head == "lem") {
        std::vector<int> lits;
        if (!parse_lits(ls, lits)) return result();
        if (!check_lemma(in, lits)) return result();
        engine_.add_clause(std::move(lits));
        ++res_.clauses;
        continue;
      }
      if (head == "qed") {
        ++res_.steps;
        if (!engine_.conflicted()) {
          return fail("qed-failed",
                      "clause set propagates without contradiction");
        }
        saw_qed = true;
        continue;
      }
      return fail("parse-error",
                  "line " + std::to_string(lineno_) + ": '" + head + "'");
    }
    if (!saw_qed) return fail("truncated", "no qed");
    res_.ok = true;
    return result();
  }

 private:
  CheckResult fail(const char* reason, std::string detail) {
    res_.ok = false;
    res_.reason = reason;
    res_.detail = std::move(detail);
    return res_;
  }

  CheckResult result() { return res_; }

  bool parse_lits(std::istringstream& ls, std::vector<int>& lits) {
    std::string tok;
    bool closed = false;
    while (ls >> tok) {
      if (!is_int_token(tok)) {
        fail("parse-error", "line " + std::to_string(lineno_) +
                                ": bad literal '" + tok + "'");
        return false;
      }
      const long long l = std::stoll(tok);
      if (l == 0) {
        closed = true;
        break;
      }
      const long long v = l > 0 ? l : -l;
      if (v > static_cast<long long>(engine_.num_vars())) {
        fail("parse-error", "line " + std::to_string(lineno_) +
                                ": variable out of range");
        return false;
      }
      lits.push_back(static_cast<int>(l));
    }
    if (!closed) {
      fail("parse-error",
           "line " + std::to_string(lineno_) + ": missing 0 terminator");
      return false;
    }
    return true;
  }

  bool parse_atom(std::istringstream& ls) {
    std::size_t bvar = 0;
    std::string kind;
    std::int64_t bound = 0;
    std::size_t k = 0;
    if (!(ls >> bvar >> kind >> bound >> k) || bvar == 0 ||
        bvar > engine_.num_vars() || kind != "le") {
      fail("parse-error", "line " + std::to_string(lineno_) + ": bad atom");
      return false;
    }
    AtomInfo a;
    a.present = true;
    a.bound = bound;
    for (std::size_t i = 0; i < k; ++i) {
      int v = 0;
      std::int64_t c = 0;
      if (!(ls >> v >> c) || v < 0 ||
          static_cast<std::size_t>(v) >= nints_) {
        fail("parse-error",
             "line " + std::to_string(lineno_) + ": bad atom term");
        return false;
      }
      a.terms.emplace_back(v, c);
    }
    atoms_[bvar] = std::move(a);
    return true;
  }

  // Premise system of one lemma: negated clause literals then ctx
  // literals, each mapped through the atom table. `refs` names premise i's
  // inequality row "p<i>".
  bool build_premises(const std::vector<int>& lits,
                      const std::vector<int>& ctx, std::vector<Ineq>& rows,
                      std::unordered_map<std::string, std::size_t>& refs) {
    const std::size_t n = lits.size();
    for (std::size_t i = 0; i < n + ctx.size(); ++i) {
      const int pl = i < n ? -lits[i] : ctx[i - n];
      const AtomInfo& a = atoms_[static_cast<std::size_t>(std::abs(pl))];
      if (!a.present) {
        fail("lemma-bad-ref", "premise " + std::to_string(i) +
                                  " is not a theory atom");
        return false;
      }
      refs.emplace("p" + std::to_string(i), rows.size());
      if (pl > 0) {
        rows.push_back(Ineq{a.terms, BigInt(a.bound)});
      } else {  // Σ ≤ b false  ⇔  Σ ≥ b+1 (integers)
        Ineq gt;
        for (const auto& [u, c] : a.terms) gt.terms.emplace_back(u, -c);
        gt.bound = BigInt(-a.bound) - BigInt(1);
        rows.push_back(std::move(gt));
      }
    }
    return true;
  }

  // Resolves a Farkas reference against the premise rows or the current
  // derived bounds. Returns false (with reason set) on a dangling ref.
  bool resolve_ref(const std::string& ref, const std::vector<Ineq>& rows,
                   const std::unordered_map<std::string, std::size_t>& refs,
                   const CertState& st, Ineq& out) {
    const auto it = refs.find(ref);
    if (it != refs.end()) {
      out = rows[it->second];
      return true;
    }
    if (ref.size() > 2 && (ref.rfind("lo", 0) == 0 || ref.rfind("hi", 0) == 0)
        && is_int_token(ref.substr(2))) {
      const long long v = std::stoll(ref.substr(2));
      if (v >= 0 && static_cast<std::size_t>(v) < nints_) {
        const bool want_lo = ref[0] == 'l';
        const VarBound& b = want_lo ? st.lo[static_cast<std::size_t>(v)]
                                    : st.hi[static_cast<std::size_t>(v)];
        if (b.has) {
          // lo: v ≥ L  ⇔  −v ≤ −L ;  hi: v ≤ H.
          out.terms = {{static_cast<int>(v), want_lo ? -1 : 1}};
          out.bound = want_lo ? -b.val : b.val;
          return true;
        }
      }
    }
    fail("lemma-bad-ref", "line " + std::to_string(lineno_) + ": '" + ref +
                              "' names no premise or derived bound");
    return false;
  }

  // Verifies `f n (ref num den)*`: positive multipliers, every integer
  // column cancels, combined bound strictly negative.
  bool check_farkas(std::istringstream& ls, const std::vector<Ineq>& rows,
                    const std::unordered_map<std::string, std::size_t>& refs,
                    const CertState& st) {
    std::size_t n = 0;
    if (!(ls >> n) || n == 0) {
      fail("lemma-invalid-farkas",
           "line " + std::to_string(lineno_) + ": empty combination");
      return false;
    }
    std::map<int, Rational> cols;
    Rational total(0);
    for (std::size_t i = 0; i < n; ++i) {
      std::string ref, num, den;
      if (!(ls >> ref >> num >> den) || !is_int_token(num) ||
          !is_int_token(den)) {
        fail("parse-error",
             "line " + std::to_string(lineno_) + ": bad farkas term");
        return false;
      }
      const BigInt bn = BigInt::from_string(num);
      const BigInt bd = BigInt::from_string(den);
      if (bn.is_zero() || bn.is_negative() || bd.is_zero() ||
          bd.is_negative()) {
        fail("lemma-invalid-farkas",
             "line " + std::to_string(lineno_) + ": non-positive multiplier");
        return false;
      }
      const Rational mult(bn, bd);
      Ineq row;
      if (!resolve_ref(ref, rows, refs, st, row)) return false;
      for (const auto& [v, c] : row.terms) {
        cols[v] += mult * Rational(BigInt(c));
      }
      total += mult * Rational(row.bound);
    }
    for (const auto& [v, sum] : cols) {
      if (!sum.is_zero()) {
        fail("lemma-invalid-farkas",
             "line " + std::to_string(lineno_) + ": column " +
                 std::to_string(v) + " does not cancel");
        return false;
      }
    }
    if (!total.is_negative()) {
      fail("lemma-invalid-farkas",
           "line " + std::to_string(lineno_) + ": combined bound 0 ≤ " +
               total.num().to_string() + "/" + total.den().to_string());
      return false;
    }
    ++res_.steps;
    return true;
  }

  // One proof branch: tighten (lockstep with the certifier), then a
  // closing step or a split into two sub-branches.
  bool check_branch(const std::vector<std::string>& body, std::size_t& pos,
                    const std::vector<Ineq>& rows,
                    const std::unordered_map<std::string, std::size_t>& refs,
                    CertState st, int depth) {
    if (depth > 64) {
      fail("parse-error", "proof nesting too deep");
      return false;
    }
    tighten(rows, st);
    if (pos >= body.size()) {
      fail("lemma-open-branch", "proof body ends inside a branch");
      return false;
    }
    ++lineno_;
    std::istringstream ls(body[pos++]);
    std::string head;
    ls >> head;
    if (head == "f") return check_farkas(ls, rows, refs, st);
    if (head == "s") {
      long long v = 0;
      std::string ktok;
      if (!(ls >> v >> ktok) || v < 0 ||
          static_cast<std::size_t>(v) >= nints_ || !is_int_token(ktok)) {
        fail("parse-error", "line " + std::to_string(lineno_) + ": bad split");
        return false;
      }
      const BigInt cut = BigInt::from_string(ktok);
      // v ≤ cut  ∨  v ≥ cut+1 is an integer tautology: any split closes
      // the lemma iff both branches close.
      CertState left = st;
      VarBound& lhi = left.hi[static_cast<std::size_t>(v)];
      lhi.has = true;
      lhi.val = cut;
      if (!check_branch(body, pos, rows, refs, std::move(left), depth + 1)) {
        return false;
      }
      if (pos >= body.size() || body[pos] != "alt") {
        fail("lemma-open-branch", "missing alt after left branch");
        return false;
      }
      ++pos;
      ++lineno_;
      CertState right = std::move(st);
      VarBound& rlo = right.lo[static_cast<std::size_t>(v)];
      rlo.has = true;
      rlo.val = cut + BigInt(1);
      if (!check_branch(body, pos, rows, refs, std::move(right), depth + 1)) {
        return false;
      }
      if (pos >= body.size() || body[pos] != "join") {
        fail("lemma-open-branch", "missing join after right branch");
        return false;
      }
      ++pos;
      ++lineno_;
      ++res_.steps;
      return true;
    }
    fail("parse-error",
         "line " + std::to_string(lineno_) + ": bad proof step '" + head +
             "'");
    return false;
  }

  // Full lemma check: optional ctx line, proof body through `end`, then
  // ctx re-derivation and the branch-and-cut verification (or, for an
  // `unproven` marker, rejection unless plain reverse unit propagation
  // already entails the clause).
  bool check_lemma(std::istringstream& in, const std::vector<int>& lits) {
    std::vector<int> ctx;
    std::vector<std::string> body;
    std::string line;
    bool closed = false;
    bool first = true;
    while (std::getline(in, line)) {
      ++lineno_;
      std::istringstream ls(line);
      std::string head;
      if (!(ls >> head)) continue;
      if (first && head == "ctx") {
        first = false;
        if (!parse_lits(ls, ctx)) return false;
        continue;
      }
      first = false;
      if (head == "end") {
        closed = true;
        break;
      }
      body.push_back(line);
    }
    if (!closed) {
      fail("truncated", "lemma body missing 'end'");
      return false;
    }
    lineno_ -= body.size() + 1;  // re-counted step by step below

    if (body.size() == 1 && body[0] == "unproven") {
      lineno_ += 2;
      ++res_.steps;
      if (engine_.rup_holds(lits)) return true;  // boolean rescue
      fail("lemma-unproven", "line " + std::to_string(lineno_ - 1));
      return false;
    }

    // Every ctx literal must itself be a consequence of the clause set so
    // far — the solver had it at decision level 0. A conflicted DB (e.g.
    // an assumption contradicting a unit problem clause: the trivially-
    // unsat session shape) entails every literal, so the check is
    // vacuous there — the engine stopped assigning values at ⊥.
    if (!engine_.conflicted()) {
      for (const int l : ctx) {
        if (engine_.value(l) != 1) {
          fail("ctx-underived", "literal " + std::to_string(l) +
                                    " does not follow from the clause set");
          return false;
        }
      }
    }
    std::vector<Ineq> rows;
    std::unordered_map<std::string, std::size_t> refs;
    if (!build_premises(lits, ctx, rows, refs)) return false;
    CertState st;
    st.lo.resize(nints_);
    st.hi.resize(nints_);
    std::size_t pos = 0;
    if (!check_branch(body, pos, rows, refs, std::move(st), 0)) {
      return false;
    }
    if (pos != body.size()) {
      fail("parse-error", "trailing proof steps after the branch closed");
      return false;
    }
    ++lineno_;  // the 'end' line
    return true;
  }

  PropEngine engine_;
  std::vector<AtomInfo> atoms_{AtomInfo{}};
  std::size_t nints_ = 0;
  std::size_t lineno_ = 0;
  CheckResult res_;
};

}  // namespace

CheckResult check_proof_text(const std::string& text) {
  Checker ck;
  return ck.run(text);
}

CheckResult check_proof_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    CheckResult r;
    r.reason = "parse-error";
    r.detail = "cannot open " + path;
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return check_proof_text(buf.str());
}

}  // namespace advocat::proofcheck
