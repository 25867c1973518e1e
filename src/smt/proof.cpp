// Certificate generation: writes each logged theory lemma's proof and
// serializes the session trace into the line grammar the standalone
// checker (tools/proof_check.cpp) validates.
//
// A lemma the solver's simplex refuted by one Farkas combination carries
// that combination as its hint, written verbatim as the lemma's one `f`
// step. Every other lemma (a bound entailment, an integer conflict, a
// leaf refuted by branching) is closed by interval tightening with
// Chvátal–Gomory rounding, bisecting the narrowest finite interval when
// tightening stalls. There is no second arithmetic decision procedure.
//
// The interval tightening is proof/tighten.hpp, the code the checker runs
// too, so a proof step can reference derived bounds as `lo<v>` / `hi<v>`
// without serializing every intermediate derivation: the checker reaches
// the same bound state on its own. What is the certifier's own is the
// split choice and the serialization.
#include "smt/proof.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>

#include "proof/tighten.hpp"
#include "util/bigint.hpp"
#include "util/fault.hpp"
#include "util/rational.hpp"
#include "util/stopwatch.hpp"

namespace advocat::smt::native {

using tighten::Bounds;
using tighten::Ineq;
using tighten::Premises;
using tighten::VarBound;
using util::BigInt;
using util::Rational;

// What ProofLog keeps between the certificates of a session: the
// serialized problem and trace, both only growing. A record serializes to
// the same text in every certificate (a lemma's premises are its own
// literals), so each record is serialized, and each lemma certified, once
// per session.
struct ProofLog::State {
  std::string atoms, clauses;  // `atom` lines; `in` lines incl. def units
  std::size_t num_atoms = 0, num_clauses = 0, num_units = 0;
  std::string trace;  // every committed record, each lemma certified
  std::size_t splits = 0;  // `s` steps in `trace`
  bool unproven = false;  // `trace` holds an `unproven` lemma
  Bounds bounds;  // empty between lemmas: each lemma tightens from none

  void extend_problem(const SharedProblem& sh);
  void extend_trace(const SharedProblem& sh,
                    const std::vector<ProofRecord>& records);
};

ProofLog::ProofLog() : state_(std::make_unique<State>()) {}
ProofLog::~ProofLog() = default;

namespace {

// The inequality an atom literal asserts: Σ ≤ b when true, Σ ≥ b+1 over
// the integers when false. Null when the literal is not a theory atom.
const StaticRow* atom_row(const SharedProblem& sh, Lit l) {
  const int v = var_of(l);
  if (v < 0 || v >= sh.num_bvars) return nullptr;
  const int ai = sh.atom_of_var[static_cast<std::size_t>(v)];
  if (ai < 0) return nullptr;
  const Atom& a = sh.atoms[static_cast<std::size_t>(ai)];
  return is_neg(l) ? &a.negation : &a.row;
}

std::string rat_pair(const Rational& r) {
  return r.num().to_string() + " " + r.den().to_string();
}

// Certifier for a lemma without a hint: tightens the bounds in place (the
// caller rolls them back).
struct Certifier {
  const Premises& p;
  Bounds& st;
  int steps_left = 20000;
  std::size_t splits = 0;  // `s` steps written

  // Closes the branch whose last change is `seed`: a bound node (a split
  // cut), or -1 for the lemma's own rows.
  bool branch(int seed, std::ostringstream& out, int depth);
};

bool Certifier::branch(int seed, std::ostringstream& out, int depth) {
  if (--steps_left <= 0 || depth > 48) return false;

  // 1. Integer interval tightening: a bound crossing is a contradiction
  // the checker re-derives, so the step only names the crossed variable's
  // two bounds.
  const int crossed = tighten::tighten_branch(p, st, seed);
  if (crossed >= 0) {
    out << "f 2 lo" << crossed << " 1 1 hi" << crossed << " 1 1\n";
    return true;
  }

  // 2. Bisect the narrowest finite interval of an unfixed variable.
  int best = -1;
  std::optional<BigInt> best_width;
  for (std::size_t v = 0; v < st.lo.size(); ++v) {
    const VarBound& lb = st.lo[v];
    const VarBound& hb = st.hi[v];
    if (!lb.has || !hb.has || lb.val == hb.val) continue;
    const BigInt w = hb.val - lb.val;
    if (!best_width || w < *best_width) {
      best_width = w;
      best = static_cast<int>(v);
    }
  }
  if (best < 0) return false;  // no finite interval left to bisect
  const BigInt cut =
      st.at(best, false).val + tighten::floor_div(*best_width, BigInt(2));
  out << "s " << best << " " << cut.to_string() << "\n";
  ++splits;
  const int node = 2 * best;  // + 1 for the upper bound
  const std::size_t mark = st.trail.size();
  st.set(best, true, cut);
  if (!branch(node + 1, out, depth + 1)) return false;
  st.undo_to(mark);
  out << "alt\n";
  st.set(best, false, cut + BigInt(1));
  if (!branch(node, out, depth + 1)) return false;
  st.undo_to(mark);
  out << "join\n";
  return true;
}

// Certifies one lemma; returns the proof body ("" on failure). A hint is
// written as the one Farkas step: multiplier i weighs premise p<i>, the
// negation of lemma literal i. Without one, the certifier tightens `st`
// from empty and bisects, adding its bisections to `splits`; `st` is
// emptied again on every exit.
std::string certify_lemma(const SharedProblem& sh, const ProofRecord& rec,
                          Bounds& st, std::size_t& splits) {
  if (!rec.hint.empty()) {
    std::string f = "f " + std::to_string(rec.hint.size());
    for (std::size_t i = 0; i < rec.hint.size(); ++i) {
      f += " p" + std::to_string(i) + " " + rat_pair(rec.hint[i]);
    }
    return f + "\n";
  }
  Premises p;
  p.reserve(rec.lits.size());
  for (const Lit l : rec.lits) {
    // Premise: the negated clause literal.
    const StaticRow* r = atom_row(sh, neg(l));
    if (r == nullptr) return "";  // not a theory atom (defensive)
    p.push_back(Ineq{r->terms, BigInt(r->bound)});
  }
  struct Rollback {
    Bounds& b;
    ~Rollback() { b.undo_to(0); }
  } rollback{st};
  Certifier cert{p, st};
  std::ostringstream body;
  if (!cert.branch(-1, body, 0)) return "";
  splits += cert.splits;
  return body.str();
}

// Appends a decimal integer.
void put(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void put_clause(std::string& out, const char* head, const Lit* lits,
                std::size_t n) {
  out += head;
  for (std::size_t k = 0; k < n; ++k) {
    out += ' ';
    put(out, proof_lit(lits[k]));
  }
  out += " 0\n";
}

}  // namespace

// Serializes the atoms and problem clauses translated since the last
// certificate (units follow the clauses: `in` lines are order-free).
// Commits only at the end, so a throw leaves the state as it was.
void ProofLog::State::extend_problem(const SharedProblem& sh) {
  std::string new_atoms, new_clauses;
  for (std::size_t i = num_atoms; i < sh.atoms.size(); ++i) {
    const StaticRow& r = sh.atoms[i].row;
    new_atoms += "atom ";
    put(new_atoms, sh.atom_var[i] + 1);
    new_atoms += " le ";
    put(new_atoms, r.bound);
    new_atoms += ' ';
    put(new_atoms, static_cast<std::int64_t>(r.terms.size()));
    for (const auto& [v, c] : r.terms) {
      new_atoms += ' ';
      put(new_atoms, v);
      new_atoms += ' ';
      put(new_atoms, c);
    }
    new_atoms += '\n';
  }
  for (std::size_t i = num_clauses; i < sh.clauses.size(); ++i) {
    put_clause(new_clauses, "in", sh.clauses.begin(i), sh.clauses.len(i));
  }
  for (std::size_t i = num_units; i < sh.def_units.size(); ++i) {
    put_clause(new_clauses, "in", &sh.def_units[i], 1);
  }
  // Reserved first, so the appends that commit cannot throw.
  atoms.reserve(atoms.size() + new_atoms.size());
  clauses.reserve(clauses.size() + new_clauses.size());
  atoms += new_atoms;
  clauses += new_clauses;
  num_atoms = sh.atoms.size();
  num_clauses = sh.clauses.size();
  num_units = sh.def_units.size();
}

// Serializes (and certifies) the records logged since the last
// certificate. Commits only once every record is done, so a throw leaves
// the serialized trace as it was.
void ProofLog::State::extend_trace(const SharedProblem& sh,
                                   const std::vector<ProofRecord>& records) {
  std::string text;
  std::size_t new_splits = splits;
  bool new_unproven = unproven;
  bounds.grow(sh.int_names.size());
  for (const ProofRecord& rec : records) {
    const Lit* lits = rec.lits.data();
    const std::size_t n = rec.lits.size();
    if (rec.kind == ProofRecord::Kind::kRup) {
      put_clause(text, "rup", lits, n);
      continue;
    }
    put_clause(text, "lem", lits, n);
    const std::string body = certify_lemma(sh, rec, bounds, new_splits);
    if (body.empty()) {
      text += "unproven\n";
      new_unproven = true;
    } else {
      text += body;
    }
    text += "end\n";
    // A BigInt allocation fault latched while certifying is taken here,
    // between lemmas: it aborts this certificate into the stub instead of
    // reaching the next check's search.
    if (util::fault::take_deferred()) throw util::fault::FaultInjected{};
  }
  trace.reserve(trace.size() + text.size());  // so the append cannot throw
  trace += text;
  splits = new_splits;
  unproven = new_unproven;
}

Certificate ProofLog::certificate(const SharedProblem& sh,
                                  const std::vector<Lit>& assume_lits,
                                  bool trivially_unsat,
                                  bool attached_mid_session) {
  const util::Stopwatch sw;
  Certificate cert;
  cert.mode = "native";
  std::string& out = cert.text;
  try {
    out = "advocat-proof 3\nmode native\n";
    if (trivially_unsat) {
      out += "in 0\nqed\n";  // translation already derived the empty clause
    } else {
      State& st = *state_;
      st.extend_problem(sh);
      st.extend_trace(sh, pending_);
      pending_.clear();
      out.reserve(out.size() + 64 + st.atoms.size() + st.clauses.size() +
                  16 * assume_lits.size() + st.trace.size());
      out += "nvars ";
      put(out, sh.num_bvars);
      out += "\nnints ";
      put(out, static_cast<std::int64_t>(sh.int_names.size()));
      out += '\n';
      out += st.atoms;
      out += st.clauses;
      for (const Lit l : assume_lits) put_clause(out, "assume", &l, 1);
      out += st.trace;
      out += "qed\n";
      cert.splits = st.splits;
      cert.complete = !attached_mid_session && !st.unproven;
      cert.reason = attached_mid_session ? "proof sink attached mid-session"
                    : st.unproven        ? "uncertified theory lemma"
                                         : "";
    }
  } catch (...) {
    cert.mode = "attested";
    cert.complete = false;
    cert.reason = "native certificate construction aborted";
    out = "advocat-proof 3\nmode attested native-aborted\nqed\n";
  }
  cert.proof_bytes = out.size();
  cert.proof_ms = sw.millis();
  return cert;
}

void FileProofSink::on_unsat_certificate(const Certificate& cert) {
  ++count_;
  if (!cert.complete) ++incomplete_;
  total_bytes_ += cert.proof_bytes;
  total_ms_ += cert.proof_ms;
  total_splits_ += cert.splits;
  std::ofstream out(prefix_ + std::to_string(count_) + ".proof");
  out << cert.text;
  out.close();
  if (!out) ++failed_;
}

}  // namespace advocat::smt::native
