// Certificate validation — see proof_check.hpp for the contract and
// docs/PROOFS.md for the grammar. Structure:
//
//  1. a watched-literal unit-propagation engine over the ingested clauses
//     (problem `in` lines, `assume` hypotheses, verified derivations),
//     with a permanent trail that only grows and a rollback point for the
//     temporary assumptions of each reverse-unit-propagation check;
//  2. the worklist interval tightener of src/proof/tighten.hpp, which
//     derives the bounds a proof step names as `lo<v>` / `hi<v>`: each
//     lemma tightens from empty bounds over its own rows and rolls back;
//  3. a recursive-descent verifier for lemma proof bodies: `f` Farkas
//     combinations re-summed in exact rational arithmetic, and `s … alt …
//     join` single-variable splits (integer tautologies, so any split is
//     admissible).
#include "proof_check.hpp"

#include <cctype>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "proof/tighten.hpp"
#include "util/bigint.hpp"
#include "util/rational.hpp"

namespace advocat::proofcheck {
namespace {

using tighten::Bounds;
using tighten::Ineq;
using tighten::Premises;
using tighten::VarBound;
using util::BigInt;
using util::Rational;

// ---------------------------------------------------------------- parsing

bool is_int_token(std::string_view s) {
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i])) == 0) return false;
  }
  return true;
}

// The whitespace-separated tokens of one line, consumed front to back.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token; false at the end of the line.
  bool next(std::string_view& tok) {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    tok = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return !tok.empty();
  }

  /// The next token as an integer of type T; false when it is missing,
  /// not a decimal integer or out of T's range.
  template <class T>
  bool next_int(T& v) {
    std::string_view tok;
    if (!next(tok)) return false;
    const char* end = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), end, v);
    return res.ec == std::errc() && res.ptr == end;
  }

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }
  std::string_view rest_;
};

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
  CheckResult run(std::string_view text) {
    text_ = text;
    std::string_view line;
    bool saw_qed = false;
    bool saw_nints = false;
    while (next_line(line)) {
      Tokens ls(line);
      std::string_view head;
      if (!ls.next(head)) continue;  // blank line
      if (saw_qed) return fail("parse-error", "content after qed");
      if (lineno_ == 1) {
        std::string_view ver;
        if (head != "advocat-proof" || !ls.next(ver) || ver != "3") {
          return fail("bad-header", "expected 'advocat-proof 3'");
        }
        continue;
      }
      if (head == "mode") {
        std::string_view mode;
        if (!ls.next(mode)) return fail("bad-header", "missing mode");
        res_.mode = mode;
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
        return fail("parse-error",
                    "unexpected '" + std::string(head) + "' in attested");
      }
      if (head == "nvars") {
        std::size_t n = 0;
        // Literals and variable indices are ints.
        if (!ls.next_int(n) || !atoms_.empty() || n >= INT_MAX) {
          return fail("parse-error", "bad or repeated nvars");
        }
        engine_.set_num_vars(n);
        atoms_.assign(n + 1, AtomInfo{});
        continue;
      }
      if (head == "nints") {
        // The bound arrays are sized once: later lines index them.
        if (saw_nints || !ls.next_int(nints_) || nints_ > INT_MAX) {
          return fail("parse-error", "bad or repeated nints");
        }
        saw_nints = true;
        bounds_.grow(nints_);
        continue;
      }
      if (head == "atom") {
        if (!parse_atom(ls)) return result();
        continue;
      }
      if (head == "in" || head == "assume" || head == "rup") {
        std::vector<int> lits;
        if (!parse_lits(ls, lits)) return result();
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
        if (!check_lemma(lits)) return result();
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
      return fail("parse-error", "line " + std::to_string(lineno_) + ": '" +
                                     std::string(head) + "'");
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

  // The next line of the text (without its newline); counts lines.
  bool next_line(std::string_view& line) {
    if (text_.empty()) return false;
    const std::size_t eol = text_.find('\n');
    line = text_.substr(0, eol);
    text_.remove_prefix(eol == std::string_view::npos ? text_.size()
                                                      : eol + 1);
    ++lineno_;
    return true;
  }

  bool parse_lits(Tokens& ls, std::vector<int>& lits) {
    std::string_view tok;
    bool closed = false;
    while (ls.next(tok)) {
      long long l = 0;
      const char* end = tok.data() + tok.size();
      const auto res = std::from_chars(tok.data(), end, l);
      if (res.ec != std::errc() || res.ptr != end) {
        fail("parse-error", "line " + std::to_string(lineno_) +
                                ": bad literal '" + std::string(tok) + "'");
        return false;
      }
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

  bool parse_atom(Tokens& ls) {
    std::size_t bvar = 0;
    std::string_view kind;
    std::int64_t bound = 0;
    std::size_t k = 0;
    if (!ls.next_int(bvar) || !ls.next(kind) || !ls.next_int(bound) ||
        !ls.next_int(k) || bvar == 0 || bvar > engine_.num_vars() ||
        kind != "le") {
      fail("parse-error", "line " + std::to_string(lineno_) + ": bad atom");
      return false;
    }
    // One meaning per variable: a lemma's rows are read from this table
    // when its `lem` line is checked.
    if (atoms_[bvar].present) {
      fail("parse-error",
           "line " + std::to_string(lineno_) + ": repeated atom");
      return false;
    }
    AtomInfo a;
    a.present = true;
    a.bound = bound;
    for (std::size_t i = 0; i < k; ++i) {
      int v = 0;
      std::int64_t c = 0;
      if (!ls.next_int(v) || !ls.next_int(c) || v < 0 ||
          static_cast<std::size_t>(v) >= nints_ || c == 0) {
        fail("parse-error",
             "line " + std::to_string(lineno_) + ": bad atom term");
        return false;
      }
      a.terms.emplace_back(v, c);
    }
    atoms_[bvar] = std::move(a);
    return true;
  }

  // The inequality an atom literal asserts: Σ ≤ b when true, Σ ≥ b+1 over
  // the integers when false. False when the literal is not a theory atom.
  bool atom_row(int l, Ineq& out) const {
    const AtomInfo& a = atoms_[static_cast<std::size_t>(std::abs(l))];
    if (!a.present) return false;
    if (l > 0) {
      out = Ineq{a.terms, BigInt(a.bound)};
    } else {  // Σ ≤ b false  ⇔  Σ ≥ b+1 (integers)
      out.terms.clear();
      for (const auto& [u, c] : a.terms) out.terms.emplace_back(u, -c);
      out.bound = BigInt(-a.bound) - BigInt(1);
    }
    return true;
  }

  // Resolves a Farkas reference by index: `p<i>` names premise row i,
  // `lo<v>` / `hi<v>` the current derived bounds on integer var v. Returns
  // false (with reason set) on a dangling ref.
  bool resolve_ref(std::string_view ref, const Premises& p, Bounds& st,
                   Ineq& out) {
    const bool premise = ref.size() > 1 && ref[0] == 'p';
    const bool bound = ref.size() > 2 && (ref.substr(0, 2) == "lo" ||
                                          ref.substr(0, 2) == "hi");
    std::size_t idx = 0;
    if (premise || bound) {
      const char* end = ref.data() + ref.size();
      const auto res = std::from_chars(ref.data() + (premise ? 1 : 2), end,
                                       idx);
      if (res.ec == std::errc() && res.ptr == end) {
        if (premise && idx < p.size()) {
          out = p[idx];
          return true;
        }
        const VarBound* b =
            bound && idx < nints_
                ? &st.at(static_cast<int>(idx), ref[0] == 'h')
                : nullptr;
        if (b != nullptr && b->has) {
          // lo: v ≥ L  ⇔  −v ≤ −L ;  hi: v ≤ H.
          const bool want_lo = ref[0] == 'l';
          out.terms = {{static_cast<int>(idx), want_lo ? -1 : 1}};
          out.bound = want_lo ? -b->val : b->val;
          return true;
        }
      }
    }
    fail("lemma-bad-ref", "line " + std::to_string(lineno_) + ": '" +
                              std::string(ref) +
                              "' names no premise or derived bound");
    return false;
  }

  // Verifies `f n (ref num den)*`: positive multipliers, every integer
  // column cancels, combined bound strictly negative.
  bool check_farkas(Tokens& ls, const Premises& p, Bounds& st) {
    std::size_t n = 0;
    if (!ls.next_int(n) || n == 0) {
      fail("lemma-invalid-farkas",
           "line " + std::to_string(lineno_) + ": empty combination");
      return false;
    }
    std::map<int, Rational> cols;
    Rational total(0);
    for (std::size_t i = 0; i < n; ++i) {
      std::string_view ref, num, den;
      if (!ls.next(ref) || !ls.next(num) || !ls.next(den) ||
          !is_int_token(num) || !is_int_token(den)) {
        fail("parse-error",
             "line " + std::to_string(lineno_) + ": bad farkas term");
        return false;
      }
      const BigInt bn = BigInt::from_string(std::string(num));
      const BigInt bd = BigInt::from_string(std::string(den));
      if (bn.is_zero() || bn.is_negative() || bd.is_zero() ||
          bd.is_negative()) {
        fail("lemma-invalid-farkas",
             "line " + std::to_string(lineno_) + ": non-positive multiplier");
        return false;
      }
      const Rational mult(bn, bd);
      Ineq row;
      if (!resolve_ref(ref, p, st, row)) return false;
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

  // True when a Farkas step's terms name a derived bound (`lo<v>` or
  // `hi<v>`) anywhere; no multiplier token starts with a letter.
  static bool reads_bound(Tokens ls) {
    std::string_view tok;
    while (ls.next(tok)) {
      if (tok.starts_with("lo") || tok.starts_with("hi")) return true;
    }
    return false;
  }

  // One proof branch whose last change is `seed` (a split's bound node, or
  // -1 for the lemma's own rows): a closing step or a split into two
  // sub-branches. The branch is tightened first only when its step reads
  // derived bounds: a split (its children start from them) or an `f` step
  // naming one. A crossing needs no special case: the closing `f` step
  // names the crossed bounds.
  bool check_branch(const std::vector<std::string_view>& body,
                    std::size_t& pos, const Premises& p, Bounds& st, int seed,
                    int depth) {
    if (depth > 64) {
      fail("parse-error", "proof nesting too deep");
      return false;
    }
    if (pos >= body.size()) {
      fail("lemma-open-branch", "proof body ends inside a branch");
      return false;
    }
    ++lineno_;
    Tokens ls(body[pos++]);
    std::string_view head;
    ls.next(head);
    if (head == "s" || (head == "f" && reads_bound(ls))) {
      tighten::tighten_branch(p, st, seed);
    }
    if (head == "f") return check_farkas(ls, p, st);
    if (head == "s") {
      int var = 0;
      std::string_view ktok;
      if (!ls.next_int(var) || !ls.next(ktok) || var < 0 ||
          static_cast<std::size_t>(var) >= nints_ || !is_int_token(ktok)) {
        fail("parse-error", "line " + std::to_string(lineno_) + ": bad split");
        return false;
      }
      const BigInt cut = BigInt::from_string(std::string(ktok));
      // v ≤ cut  ∨  v ≥ cut+1 is an integer tautology: any split closes
      // the lemma iff both branches close.
      const std::size_t mark = st.trail.size();
      st.set(var, true, cut);
      if (!check_branch(body, pos, p, st, 2 * var + 1, depth + 1)) {
        return false;
      }
      st.undo_to(mark);
      if (pos >= body.size() || body[pos] != "alt") {
        fail("lemma-open-branch", "missing alt after left branch");
        return false;
      }
      ++pos;
      ++lineno_;
      st.set(var, false, cut + BigInt(1));
      if (!check_branch(body, pos, p, st, 2 * var, depth + 1)) {
        return false;
      }
      st.undo_to(mark);
      if (pos >= body.size() || body[pos] != "join") {
        fail("lemma-open-branch", "missing join after right branch");
        return false;
      }
      ++pos;
      ++lineno_;
      ++res_.steps;
      return true;
    }
    fail("parse-error", "line " + std::to_string(lineno_) +
                            ": bad proof step '" + std::string(head) + "'");
    return false;
  }

  // Full lemma check: proof body through `end`, then the branch-and-cut
  // verification against the lemma's premises — its negated literals —
  // from empty bounds (or, for an `unproven` marker, rejection unless
  // plain reverse unit propagation already entails the clause).
  bool check_lemma(const std::vector<int>& lits) {
    std::vector<std::string_view> body;
    std::string_view line;
    bool closed = false;
    while (next_line(line)) {
      Tokens ls(line);
      std::string_view head;
      if (!ls.next(head)) continue;
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

    Premises p(lits.size());
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (!atom_row(-lits[i], p[i])) {
        fail("lemma-bad-ref", "premise " + std::to_string(i) +
                                  " is not a theory atom");
        return false;
      }
    }
    std::size_t pos = 0;
    const bool ok = check_branch(body, pos, p, bounds_, -1, 0);
    bounds_.undo_to(0);
    if (!ok) return false;
    if (pos != body.size()) {
      fail("parse-error", "trailing proof steps after the branch closed");
      return false;
    }
    ++lineno_;  // the 'end' line
    return true;
  }

  std::string_view text_;  // not yet read
  PropEngine engine_;
  std::vector<AtomInfo> atoms_;  // by boolean var; sized by `nvars`
  std::size_t nints_ = 0;
  Bounds bounds_;  // empty between lemmas
  std::size_t lineno_ = 0;
  CheckResult res_;
};

// A size line (`nvars`, `nints`) within the index range that still asks
// for more than memory holds.
CheckResult oversized() {
  CheckResult r;
  r.reason = "parse-error";
  r.detail = "certificate sizes exceed available memory";
  return r;
}

}  // namespace

CheckResult check_proof_text(const std::string& text) {
  try {
    Checker ck;
    return ck.run(text);
  } catch (const std::bad_alloc&) {
    return oversized();
  } catch (const std::length_error&) {
    return oversized();
  }
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
