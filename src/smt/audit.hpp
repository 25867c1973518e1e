// Solver invariant auditor: deep self-checks over the native CDCL(T)
// solver's mutable state, run at quiet points of the search when the
// ADVOCAT_AUDIT environment variable (or the ADVOCAT_AUDIT CMake option)
// turns them on.
//
// The auditor is a pure observer — it never mutates solver state — and a
// violation is a *hard* failure: the process aborts with a message naming
// the check site and the broken invariant. Tests and the soundness fuzzer
// run with the auditor enabled, so any drift between the solver's
// documented invariants and its actual behaviour dies loudly instead of
// surfacing as a wrong verdict three layers up.
//
// What is checked where (see docs/ANALYSIS.md for the full catalog):
//
//  - check_search (every backjump): trail/decision-level well-formedness,
//    propagation-head bounds, assumption-prefix bookkeeping, EVSIDS heap
//    property and heap-position inverse.
//  - check_deep (restarts, check begin/end): all of the above, plus
//    clause-arena consistency (tombstone discipline, learned/tainted
//    counters), the exactly-once two-watched-literal invariant, reason
//    validity for every implied trail literal, active-row/occurrence
//    agreement, interval-bound sanity, and the exact simplex layer's own
//    audit (basis partition, row identities, no slack shared by two
//    linear forms).
//
// Audit sites marked `bounds_settled` additionally require lo ≤ hi on
// every integer interval, every bound equal to what its bound-log chain
// implies, and clear conflict-analysis scratch; a check boundary reached
// through a util::Stop or an injected fault is *not* settled (the
// exception can unwind between an interval crossing and its explanation,
// or inside analysis) and skips those checks.
#pragma once

#include <string>

namespace advocat::smt::native {

class SearchContext;

/// True when the auditor is on for this process (ADVOCAT_AUDIT env var,
/// falling back to the ADVOCAT_AUDIT build option). Cached on first call.
bool audit_enabled();

/// Reports a broken invariant and aborts. `site` names the audit point
/// ("backjump", "restart", ...), `invariant` the check that failed, and
/// `detail` the offending values.
[[noreturn]] void audit_fail(const char* site, const char* invariant,
                             const std::string& detail);

/// Static deep-check passes over the solver's data structures. A friend
/// of SearchContext; all entry points are no-ops when
/// the auditor is disabled, so call sites need no guard.
class Auditor {
 public:
  /// O(trail + vars) pass: trail, levels, prefix, heap.
  static void check_search(const SearchContext& ctx, const char* site);
  /// Full pass: check_search plus arena, watches, reasons, rows, bounds,
  /// and the simplex layer. `bounds_settled` additionally requires lo ≤ hi
  /// everywhere, bounds that agree with the bound log, and no analysis
  /// `seen_` flag set.
  static void check_deep(const SearchContext& ctx, const char* site,
                         bool bounds_settled);
};

}  // namespace advocat::smt::native
