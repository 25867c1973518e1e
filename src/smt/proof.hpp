// Proof logging and certificate generation for the native CDCL(T) solver.
//
// While a ProofSink is installed, the SearchContext appends ProofRecords
// to the session's ProofLog as it learns: non-tainted learned clauses (RUP
// steps) and theory lemmas (the implicit reason clauses of theory
// propagations, theory-conflict clauses, and leaf blocking clauses). A
// lemma the solver's simplex refuted by one Farkas combination carries
// that combination's multipliers as its hint. The log is the session
// trace: append order is emission order.
//
// At an Unsat check boundary the ProofLog serializes the trace into a
// Certificate (grammar in docs/PROOFS.md): the translated problem clauses
// and theory-atom table, this check's assumption units, the ordered
// rup/lem trace — each theory lemma carrying an inline proof: the
// hint as one Farkas step, or else Chvátal–Gomory interval tightening
// with bisecting splits — and a closing `qed`. tools/proof_check.cpp
// validates the result with zero dependencies on solver code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "smt/search_context.hpp"
#include "smt/solver.hpp"
#include "util/rational.hpp"

namespace advocat::smt::native {

/// One entry of the session proof trace.
struct ProofRecord {
  enum class Kind : std::uint8_t {
    kRup,    ///< learned clause, checkable by reverse unit propagation
    kLemma,  ///< theory-valid clause, checkable by its inline proof
  };
  Kind kind = Kind::kRup;
  std::vector<Lit> lits;  // the clause
  /// kLemma: the solver's (positive) Farkas multiplier of each literal's
  /// negation, or empty when no single combination refuted the clause.
  std::vector<util::Rational> hint;
};

/// The proof state of one session: the trace logged since the last
/// certificate, and everything certificate() keeps between certificates.
/// Near-zero overhead: SearchContext holds a nullable pointer and logs
/// only while a sink is installed; no SolveStats field is touched, so
/// stats are bit-identical with and without logging. Every lemma is
/// theory-valid on its own: its premises are its negated literals.
class ProofLog {
 public:
  ProofLog();
  ~ProofLog();
  ProofLog(const ProofLog&) = delete;
  ProofLog& operator=(const ProofLog&) = delete;

  /// Logs a learned clause.
  void log_rup(const Lit* lits, std::size_t n) {
    push(ProofRecord::Kind::kRup, lits, n);
  }

  /// Logs a theory lemma with its `hint` (ProofRecord::hint),
  /// deduplicated by literal set (theory propagations re-derive the same
  /// implication many times per check).
  void log_lemma(const Lit* lits, std::size_t n,
                 const std::vector<util::Rational>& hint) {
    std::vector<Lit> sorted(lits, lits + n);
    std::sort(sorted.begin(), sorted.end());
    std::string key(reinterpret_cast<const char*>(sorted.data()),
                    sorted.size() * sizeof(Lit));
    if (!lemma_seen_.insert(std::move(key)).second) return;
    push(ProofRecord::Kind::kLemma, lits, n);
    pending_.back().hint = hint;
  }

  /// The certificate of one Unsat check: the problem, `assume_lits` (root
  /// assertions + this check's assumptions, the hypotheses of the
  /// refutation) and the whole session trace so far. The records logged
  /// since the previous certificate are serialized, each lemma certified
  /// once, and released; the text before them is kept from the previous
  /// certificate. `attached_mid_session` marks the certificate incomplete:
  /// learning before the sink was attached was never logged. If the build
  /// throws, the records wait for the next certificate and this one is an
  /// attested `native-aborted` stub: the verdict was reached before
  /// certification, so a failure here must not turn it into an Unknown.
  Certificate certificate(const SharedProblem& sh,
                          const std::vector<Lit>& assume_lits,
                          bool trivially_unsat, bool attached_mid_session);

 private:
  struct State;  // between certificates; defined in proof.cpp

  void push(ProofRecord::Kind kind, const Lit* lits, std::size_t n) {
    ProofRecord r;
    r.kind = kind;
    r.lits.assign(lits, lits + n);
    pending_.push_back(std::move(r));
  }

  std::vector<ProofRecord> pending_;  // logged since the last certificate
  std::unordered_set<std::string> lemma_seen_;
  std::unique_ptr<State> state_;
};

/// Writes the n-th certificate (numbered from 1 in arrival order) to
/// `<prefix><n>.proof`: the ready-made sink of docs/PROOFS.md. A
/// certificate whose file cannot be opened or written is counted in
/// failed(), so none is lost without notice. One sink serves one session
/// at a time; it takes no lock.
class FileProofSink : public ProofSink {
 public:
  explicit FileProofSink(std::string prefix) : prefix_(std::move(prefix)) {}

  void on_unsat_certificate(const Certificate& cert) override;

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t incomplete() const { return incomplete_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] double total_ms() const { return total_ms_; }
  /// Sum of Certificate::splits over the certificates received.
  [[nodiscard]] std::size_t total_splits() const { return total_splits_; }

 private:
  std::string prefix_;
  std::size_t count_ = 0;
  std::size_t incomplete_ = 0;
  std::size_t failed_ = 0;
  std::size_t total_bytes_ = 0;
  double total_ms_ = 0.0;
  std::size_t total_splits_ = 0;
};

/// Renders a literal in the certificate's DIMACS-signed form: variable v
/// is ±(v+1), negative when the literal is negated.
[[nodiscard]] inline std::int64_t proof_lit(Lit l) {
  const std::int64_t v = var_of(l) + 1;
  return is_neg(l) ? -v : v;
}

}  // namespace advocat::smt::native
