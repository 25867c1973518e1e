// Certificate generation: re-derives each logged theory lemma's integer
// infeasibility as an explicit branch-and-cut proof tree (interval
// tightening with Chvátal–Gomory rounding, single-variable splits, and
// exact Farkas combinations from a fresh rational simplex), then serializes
// the session trace into the line grammar the standalone checker
// (tools/proof_check.cpp) validates.
//
// The checker re-runs the *same* bound-tightening algorithm (tighten()
// below is duplicated there by design — the checker must not link solver
// code), so a proof step can reference derived bounds as `lo<v>` / `hi<v>`
// without serializing every intermediate derivation: both sides reach the
// identical bound state deterministically.
#include "smt/proof.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "linalg/simplex.hpp"
#include "util/bigint.hpp"
#include "util/rational.hpp"
#include "util/stopwatch.hpp"

namespace advocat::smt::native {
namespace {

using util::BigInt;
using util::Rational;

// ------------------------------------------------------ lemma certifier

// One ≤-inequality over the shared integer columns.
struct Ineq {
  std::vector<std::pair<int, std::int64_t>> terms;
  BigInt bound;
  std::string ref;  // proof reference: "p<i>" for premise i
};

struct VarBound {
  bool has = false;
  BigInt val;
};

// Branch state: the premise rows are shared; the bounds are copied per
// branch (splits only ever tighten bounds — a single-variable split is a
// bound update, not a new row).
struct CertState {
  std::vector<VarBound> lo, hi;
};

// floor(a/b) for b > 0 (BigInt division truncates toward zero).
BigInt floor_div_big(const BigInt& a, const BigInt& b) {
  BigInt q = a / b;
  if (!(a % b).is_zero() && a.is_negative()) q -= BigInt(1);
  return q;
}
constexpr int kTightenPasses = 64;

// Interval tightening to fixpoint (or pass budget) with integer rounding.
// Returns the crossed variable on contradiction, -1 otherwise. MUST stay
// behaviorally identical to the checker's copy: stop at the first
// crossing, rows in order, terms in order, full passes.
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
          // c < 0: c·v ≤ avail ⇔ v ≥ avail/c; with cc = -c > 0 that is
          // v ≥ -(avail/cc), so lo = ceil(-avail/cc) = -floor(avail/cc).
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

// Certifier context for one lemma.
struct Certifier {
  const std::vector<Ineq>& rows;
  std::size_t num_vars;
  int steps_left = 20000;

  bool branch(CertState st, std::ostringstream& out, int depth);
};

std::string rat_pair(const Rational& r) {
  return r.num().to_string() + " " + r.den().to_string();
}

bool Certifier::branch(CertState st, std::ostringstream& out, int depth) {
  if (--steps_left <= 0 || depth > 48) return false;

  // 1. Integer interval tightening: a bound crossing is a contradiction
  // the checker re-derives, so the step only names the crossed variable's
  // two bounds.
  const int crossed = tighten(rows, st);
  if (crossed >= 0) {
    out << "f 2 lo" << crossed << " 1 1 hi" << crossed << " 1 1\n";
    return true;
  }

  // 2. Exact rational simplex over the rows plus the current bounds; an
  // infeasibility yields the Farkas combination verbatim.
  linalg::Simplex spx;
  std::vector<std::string> tag_names;
  bool infeasible = false;
  for (std::size_t v = 0; v < num_vars; ++v) {
    const VarBound& lb = st.lo[v];
    const VarBound& hb = st.hi[v];
    if (!lb.has && !hb.has) continue;
    const int x = spx.var(static_cast<std::int32_t>(v));
    if (lb.has) {
      tag_names.push_back("lo" + std::to_string(v));
      if (!spx.assert_lower(x, Rational(lb.val),
                            static_cast<int>(tag_names.size() - 1))) {
        infeasible = true;
      }
    }
    if (!infeasible && hb.has) {
      tag_names.push_back("hi" + std::to_string(v));
      if (!spx.assert_upper(x, Rational(hb.val),
                            static_cast<int>(tag_names.size() - 1))) {
        infeasible = true;
      }
    }
    if (infeasible) break;
  }
  if (!infeasible) {
    for (const Ineq& r : rows) {
      if (r.terms.empty()) {
        if (r.bound.is_negative()) {
          out << "f 1 " << r.ref << " 1 1\n";  // 0 ≤ negative: immediate
          return true;
        }
        continue;
      }
      std::vector<std::pair<std::int32_t, std::int64_t>> terms;
      terms.reserve(r.terms.size());
      for (const auto& [v, c] : r.terms) {
        terms.emplace_back(static_cast<std::int32_t>(v), c);
      }
      const int s = spx.add_slack(terms);
      tag_names.push_back(r.ref);
      if (!spx.assert_upper(s, Rational(r.bound),
                            static_cast<int>(tag_names.size() - 1))) {
        infeasible = true;
        break;
      }
    }
  }
  if (!infeasible) infeasible = !spx.check();
  if (infeasible) {
    const auto& fk = spx.farkas();
    std::ostringstream f;
    int n = 0;
    for (const linalg::FarkasTerm& t : fk) {
      if (t.mult.is_zero() || t.mult.is_negative()) continue;
      f << " " << tag_names[static_cast<std::size_t>(t.tag)] << " "
        << rat_pair(t.mult);
      ++n;
    }
    out << "f " << n << f.str() << "\n";
    return true;
  }

  // 3. Rationally feasible: split on an unfixed variable. Prefer the
  // narrowest finite interval; fall back to cutting at the simplex
  // vertex value for half-open intervals.
  int best = -1;
  std::optional<BigInt> best_width;
  for (std::size_t v = 0; v < num_vars; ++v) {
    const VarBound& lb = st.lo[v];
    const VarBound& hb = st.hi[v];
    if (!lb.has || !hb.has || lb.val == hb.val) continue;
    const BigInt w = hb.val - lb.val;
    if (!best_width || w < *best_width) {
      best_width = w;
      best = static_cast<int>(v);
    }
  }
  BigInt cut;
  if (best >= 0) {
    cut = st.lo[static_cast<std::size_t>(best)].val +
          floor_div_big(*best_width, BigInt(2));
  } else {
    // No finite-width variable: cut a half-open one at its vertex value.
    for (std::size_t v = 0; v < num_vars; ++v) {
      const VarBound& lb = st.lo[v];
      const VarBound& hb = st.hi[v];
      if (lb.has && hb.has) continue;
      if (!lb.has && !hb.has) continue;
      const int x = spx.var(static_cast<std::int32_t>(v));
      const Rational& val = spx.value(x);
      BigInt k = floor_div_big(val.num(), val.den());
      if (hb.has && k >= hb.val) k = hb.val - BigInt(1);
      if (lb.has && k < lb.val) k = lb.val;
      best = static_cast<int>(v);
      cut = k;
      break;
    }
    if (best < 0) return false;  // everything fixed yet feasible: the
                                 // lemma is not certifiable this way
  }
  out << "s " << best << " " << cut.to_string() << "\n";
  CertState left = st;
  VarBound& lhi = left.hi[static_cast<std::size_t>(best)];
  lhi.has = true;
  lhi.val = cut;
  if (!branch(std::move(left), out, depth + 1)) return false;
  out << "alt\n";
  CertState right = std::move(st);
  VarBound& rlo = right.lo[static_cast<std::size_t>(best)];
  rlo.has = true;
  rlo.val = cut + BigInt(1);
  if (!branch(std::move(right), out, depth + 1)) return false;
  out << "join\n";
  return true;
}

// Extracts the premise system of a lemma clause: the negation of each
// clause literal plus each ctx literal, mapped through the atom table.
// Returns false when some literal is not a theory atom (cannot occur for
// the logged lemma sources; defensive).
bool lemma_premises(const SharedProblem& sh, const ProofRecord& rec,
                    std::vector<Ineq>& rows) {
  const std::size_t n = rec.lits.size();
  for (std::size_t i = 0; i < n + rec.ctx.size(); ++i) {
    const Lit pl = i < n ? neg(rec.lits[i]) : rec.ctx[i - n];
    const int v = var_of(pl);
    if (v < 0 || v >= sh.num_bvars) return false;
    const int ai = sh.atom_of_var[static_cast<std::size_t>(v)];
    if (ai < 0) return false;
    // Σ ≤ b asserted true, or false: Σ ≥ b+1 over the integers.
    const Atom& a = sh.atoms[static_cast<std::size_t>(ai)];
    const StaticRow& r = is_neg(pl) ? a.negation : a.row;
    rows.push_back(Ineq{r.terms, BigInt(r.bound), "p" + std::to_string(i)});
  }
  return true;
}

// Certifies one lemma; returns the proof body ("" on failure).
std::string certify_lemma(const SharedProblem& sh, const ProofRecord& rec) {
  std::vector<Ineq> rows;
  if (!lemma_premises(sh, rec, rows)) return "";
  CertState st;
  st.lo.resize(sh.int_names.size());
  st.hi.resize(sh.int_names.size());
  Certifier cert{rows, sh.int_names.size()};
  std::ostringstream body;
  if (!cert.branch(std::move(st), body, 0)) return "";
  return body.str();
}

std::string lemma_key(const ProofRecord& rec) {
  std::vector<Lit> sorted = rec.lits;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const Lit l : sorted) {
    key += std::to_string(l);
    key += ',';
  }
  key += '|';
  sorted = rec.ctx;
  std::sort(sorted.begin(), sorted.end());
  for (const Lit l : sorted) {
    key += std::to_string(l);
    key += ',';
  }
  return key;
}

void write_clause(std::ostringstream& out, const char* head,
                  const std::vector<Lit>& lits) {
  out << head;
  for (const Lit l : lits) out << " " << proof_lit(l);
  out << " 0\n";
}

}  // namespace

Certificate build_certificate(
    const CertificateInputs& in,
    std::unordered_map<std::string, std::string>& lemma_cache) {
  const util::Stopwatch sw;
  Certificate cert;
  cert.mode = "native";
  std::ostringstream out;
  out << "advocat-proof 1\n";
  out << "mode native\n";
  if (in.trivially_unsat) {
    // Translation already derived the empty clause.
    out << "in 0\nqed\n";
    cert.text = out.str();
    cert.proof_bytes = cert.text.size();
    cert.proof_ms = sw.millis();
    return cert;
  }

  const SharedProblem& sh = *in.sh;
  out << "nvars " << sh.num_bvars << "\n";
  out << "nints " << sh.int_names.size() << "\n";
  for (std::size_t ai = 0; ai < sh.atoms.size(); ++ai) {
    const StaticRow& r = sh.atoms[ai].row;
    out << "atom " << sh.atom_var[ai] + 1 << " le " << r.bound << " "
        << r.terms.size();
    for (const auto& [v, c] : r.terms) out << " " << v << " " << c;
    out << "\n";
  }
  for (std::size_t ci = 0; ci < sh.clauses.size(); ++ci) {
    out << "in";
    const Lit* lits = sh.clauses.begin(ci);
    const std::uint32_t n = sh.clauses.len(ci);
    for (std::uint32_t k = 0; k < n; ++k) out << " " << proof_lit(lits[k]);
    out << " 0\n";
  }
  for (const Lit l : sh.def_units) out << "in " << proof_lit(l) << " 0\n";
  for (const Lit l : in.assume_lits) {
    out << "assume " << proof_lit(l) << " 0\n";
  }

  bool complete = !in.attached_mid_session;
  std::string reason =
      in.attached_mid_session ? "proof sink attached mid-session" : "";
  for (const ProofRecord& rec : *in.trace) {
    switch (rec.kind) {
      case ProofRecord::Kind::kRup:
        write_clause(out, "rup", rec.lits);
        break;
      case ProofRecord::Kind::kDelete:
        write_clause(out, "del", rec.lits);
        break;
      case ProofRecord::Kind::kLemma: {
        write_clause(out, "lem", rec.lits);
        if (!rec.ctx.empty()) write_clause(out, "ctx", rec.ctx);
        const std::string key = lemma_key(rec);
        auto it = lemma_cache.find(key);
        if (it == lemma_cache.end()) {
          it = lemma_cache.emplace(key, certify_lemma(sh, rec)).first;
        }
        if (it->second.empty()) {
          out << "unproven\n";
          if (complete) {
            complete = false;
            reason = "uncertified theory lemma";
          }
        } else {
          out << it->second;
        }
        out << "end\n";
        break;
      }
    }
  }

  // Cube-mode refutation: one RUP clause per refuted cube, then the
  // binary folding ladder down to the empty clause (a bare set of 2^k
  // leaf clauses is not unit-refutable; each prefix clause resolves the
  // two one-longer clauses that extend it).
  if (!in.cubes.empty()) {
    for (const std::vector<Lit>& cube : in.cubes) {
      out << "rup";
      for (const Lit l : cube) out << " " << proof_lit(neg(l));
      out << " 0\n";
    }
    const std::vector<Lit>& first = in.cubes.front();
    const std::size_t k = first.size();
    std::vector<int> vars(k);
    for (std::size_t b = 0; b < k; ++b) vars[b] = var_of(first[b]);
    for (std::size_t j = k; j-- > 1;) {
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << j); ++m) {
        out << "rup";
        for (std::size_t b = 0; b < j; ++b) {
          out << " " << proof_lit(neg(mk_lit(vars[b], (m >> b & 1) != 0)));
        }
        out << " 0\n";
      }
    }
  }
  out << "qed\n";

  cert.text = out.str();
  cert.complete = complete;
  cert.reason = reason;
  cert.proof_bytes = cert.text.size();
  cert.proof_ms = sw.millis();
  return cert;
}

}  // namespace advocat::smt::native
