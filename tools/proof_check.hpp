// Standalone validator for advocat Unsat certificates (docs/PROOFS.md).
//
// Deliberately independent of the solver. Shared with the certifier are
// only the exact arbitrary-precision arithmetic (util/bigint.hpp,
// util/rational.hpp) and the interval tightener (proof/tighten.hpp), none
// of which holds solver logic. Parsing, unit propagation and the Farkas and
// split checks are the checker's own, so a bug in the solver's search or
// certificate serializer cannot vouch for itself. Sharing the tightener
// does not weaken this: the checker derives every `lo<v>` / `hi<v>` bound
// itself, and the certifier only predicts them, so a wrong prediction can
// get a valid certificate rejected but never a bad one accepted.
//
// A certificate is accepted only when:
//  - every `rup` clause is derivable by reverse unit propagation from the
//    problem clauses, the `assume` hypotheses, and earlier derived clauses;
//  - every `lem` clause carries an inline branch-and-cut proof that checks
//    under exact rational re-substitution (Farkas combinations cancel and
//    cross zero; splits are integer tautologies) from the clause's own
//    negated literals alone; and
//  - `qed` closes the file and the accumulated clause set propagates to a
//    contradiction.
// Rejections name the first failing ingredient (see CheckResult::reason).
#pragma once

#include <string>

namespace advocat::proofcheck {

struct CheckResult {
  bool ok = false;
  /// Rejection reason, stable across releases (mutation tests key on it):
  /// "parse-error", "bad-header", "rup-failed", "lemma-unproven",
  /// "lemma-invalid-farkas", "lemma-open-branch", "lemma-bad-ref",
  /// "truncated", "qed-failed".
  /// Empty when ok.
  std::string reason;
  /// Free-text location/context for the failure (line number, step).
  std::string detail;
  /// "native" for replayable certificates, "attested" for backend-attested
  /// verdicts (accepted, but carrying no independent evidence).
  std::string mode;
  /// Statistics for reporting: clauses ingested / steps verified.
  std::size_t clauses = 0;
  std::size_t steps = 0;
};

/// Validates a full certificate text.
[[nodiscard]] CheckResult check_proof_text(const std::string& text);

/// Reads and validates a certificate file.
[[nodiscard]] CheckResult check_proof_file(const std::string& path);

}  // namespace advocat::proofcheck
