// Proof logging and certificate generation for the native CDCL(T) solver.
//
// While a ProofSink is installed, every SearchContext appends ProofRecords
// to a ProofLog as it learns: non-tainted learned clauses (RUP steps),
// theory lemmas (the implicit reason clauses of theory propagations,
// theory-conflict clauses, and leaf blocking clauses), and clause
// deletions. Records carry globally ordered stamps from one atomic counter
// shared by every worker, so the per-worker logs merge into one coherent
// session trace: a clause is always stamped before any worker that
// imported it can use it.
//
// At an Unsat check boundary NativeSolver serializes the trace into a
// Certificate (grammar in docs/PROOFS.md): the translated problem clauses
// and theory-atom table, this check's assumption units, the stamped
// rup/lem/del trace — each theory lemma carrying an inline branch-and-cut
// proof (Farkas combinations, Chvátal–Gomory interval tightening, single-
// variable splits) produced here by re-deriving the
// lemma's integer infeasibility with the exact rational simplex — and a
// closing `qed`. tools/proof_check.cpp validates the result with zero
// dependencies on solver code.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "smt/search_context.hpp"
#include "smt/solver.hpp"

namespace advocat::smt::native {

/// One entry of the session proof trace.
struct ProofRecord {
  enum class Kind : std::uint8_t {
    kRup,     ///< learned clause, checkable by reverse unit propagation
    kLemma,   ///< theory-valid clause, checkable by its inline proof
    kDelete,  ///< advisory deletion (the checker keeps every clause: a
              ///< deletion applies to one worker's copy, not the session)
  };
  Kind kind = Kind::kRup;
  std::uint64_t stamp = 0;  ///< global emission order across all workers
  std::vector<Lit> lits;    ///< the clause
  /// kLemma only: atom literals asserted at level 0 when the lemma was
  /// produced. Leaf blocking clauses and conflict explanations omit
  /// level-0 literals (they are permanent), so the lemma clause alone
  /// need not be theory-valid — the checker re-derives each ctx literal
  /// by unit propagation and adds it to the lemma's premise set.
  std::vector<Lit> ctx;
};

/// Per-context proof log. Near-zero overhead: SearchContext holds a
/// nullable pointer and logs only while a sink is installed; no SolveStats
/// field is touched, so determinism-mode stats are bit-identical with and
/// without logging.
class ProofLog {
 public:
  explicit ProofLog(std::atomic<std::uint64_t>* stamp) : stamp_(stamp) {}

  /// Logs a learned clause; returns its stamp (exchanged clauses carry it
  /// as their origin proof id).
  std::uint64_t log_rup(const Lit* lits, std::size_t n) {
    ProofRecord r;
    r.kind = ProofRecord::Kind::kRup;
    r.stamp = stamp_->fetch_add(1, std::memory_order_relaxed);
    r.lits.assign(lits, lits + n);
    records_.push_back(std::move(r));
    return records_.back().stamp;
  }

  /// Logs a theory lemma with its level-0 atom context; deduplicated by
  /// literal set (theory propagations re-derive the same implication many
  /// times per check).
  void log_lemma(const Lit* lits, std::size_t n, const Lit* ctx,
                 std::size_t nctx) {
    std::string key;
    key.reserve(8 * n);
    std::vector<Lit> sorted(lits, lits + n);
    std::sort(sorted.begin(), sorted.end());
    for (const Lit l : sorted) {
      key += std::to_string(l);
      key += ',';
    }
    if (!lemma_seen_.insert(key).second) return;
    ProofRecord r;
    r.kind = ProofRecord::Kind::kLemma;
    r.stamp = stamp_->fetch_add(1, std::memory_order_relaxed);
    r.lits.assign(lits, lits + n);
    r.ctx.assign(ctx, ctx + nctx);
    records_.push_back(std::move(r));
  }

  void log_delete(const Lit* lits, std::size_t n) {
    ProofRecord r;
    r.kind = ProofRecord::Kind::kDelete;
    r.stamp = stamp_->fetch_add(1, std::memory_order_relaxed);
    r.lits.assign(lits, lits + n);
    records_.push_back(std::move(r));
  }

  /// Moves this log's records out (used when merging worker logs into the
  /// session trace at harvest/join points).
  void drain_into(std::vector<ProofRecord>& out) {
    for (ProofRecord& r : records_) out.push_back(std::move(r));
    records_.clear();
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::atomic<std::uint64_t>* stamp_;
  std::vector<ProofRecord> records_;
  std::unordered_set<std::string> lemma_seen_;
};

/// Everything build_certificate needs from the solver session.
struct CertificateInputs {
  const SharedProblem* sh = nullptr;
  /// Session trace, already merged and stamp-sorted.
  const std::vector<ProofRecord>* trace = nullptr;
  /// Root assertions + this check's assumption literals:
  /// serialized as `assume` units, the hypotheses of the refutation.
  std::vector<Lit> assume_lits;
  /// Cube-mode Unsat: the refuted cubes (all sign combinations of the
  /// split variables). Empty for sequential/portfolio Unsat.
  std::vector<std::vector<Lit>> cubes;
  bool trivially_unsat = false;
  /// True when the sink was attached after checks had already run: the
  /// earlier learned material cannot be reconstructed, so the certificate
  /// is honest about being unverifiable.
  bool attached_mid_session = false;
};

/// Serializes (and theory-certifies) one Unsat check. `lemma_cache` maps a
/// lemma's literal key to its certified proof body across calls — sizing
/// sessions re-certify the same session trace once per Unsat probe, and
/// the expensive branch-and-cut re-derivation is per-lemma cacheable.
Certificate build_certificate(
    const CertificateInputs& in,
    std::unordered_map<std::string, std::string>& lemma_cache);

/// Writes every certificate to `dir/proof_<n>.proof` (numbered in arrival
/// order). Used by the bench harness and the CI certification step;
/// ADVOCAT_PROOF_DIR points the fuzz suites here.
class FileProofSink : public ProofSink {
 public:
  explicit FileProofSink(std::string dir) : dir_(std::move(dir)) {}

  // Thread-safe: parallel capacity probing drives several solver sessions
  // into one sink concurrently (see core::VerifyOptions::proof_sink).
  void on_unsat_certificate(const Certificate& cert) override {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::string path =
        dir_ + "/proof_" + std::to_string(count_++) + ".proof";
    std::ofstream out(path);
    out << cert.text;
    total_bytes_ += cert.proof_bytes;
    total_ms_ += cert.proof_ms;
    if (!cert.complete) ++incomplete_;
  }

  [[nodiscard]] std::size_t count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  [[nodiscard]] std::size_t incomplete() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return incomplete_;
  }
  [[nodiscard]] std::size_t total_bytes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return total_bytes_;
  }
  [[nodiscard]] double total_ms() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return total_ms_;
  }

 private:
  mutable std::mutex mu_;
  std::string dir_;
  std::size_t count_ = 0;
  std::size_t incomplete_ = 0;
  std::size_t total_bytes_ = 0;
  double total_ms_ = 0.0;
};

/// Renders a literal in the certificate's DIMACS-signed form: variable v
/// is ±(v+1), negative when the literal is negated.
[[nodiscard]] inline std::int64_t proof_lit(Lit l) {
  const std::int64_t v = var_of(l) + 1;
  return is_neg(l) ? -v : v;
}

}  // namespace advocat::smt::native
