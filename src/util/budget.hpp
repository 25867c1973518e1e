// Unified resource governance: one budget type and one stop-reason
// taxonomy shared by every layer (solver, simplex, verifier, bench).
//
// A ResourceBudget is a set of independent ceilings (0 = unlimited). The
// consumer polls them at its cooperative cancellation point — the native
// solver's SearchContext::bump_ops(), which the simplex pivot loop and the
// integer leaf search already tick into — and unwinds with a structured
// reason instead of crashing or silently returning Unknown. Every degraded
// verdict therefore carries a machine-readable StopReason: Unknown is
// never silent.
#pragma once

#include <cstdint>

namespace advocat::util {

/// Why a check (or a whole verification / sizing run) stopped early.
/// kNone means the result is definite (Sat/Unsat) — a degraded result must
/// always carry a non-kNone reason.
enum class StopReason : std::uint8_t {
  kNone = 0,           ///< definite result, nothing was cut short
  kDeadline,           ///< wall-clock deadline (budget deadline_ms)
  kConflictBudget,     ///< ResourceBudget::max_conflicts exhausted
  kDecisionBudget,     ///< ResourceBudget::max_decisions exhausted
  kPropagationBudget,  ///< ResourceBudget::max_propagations exhausted
  kMemoryCeiling,      ///< ResourceBudget::max_memory_bytes exceeded
  kCancelled,          ///< Solver::cancel() (or stop flag) observed
  kFaultInjected,      ///< a deterministic fault (ADVOCAT_FAULTS) fired
  kDegraded,           ///< incomplete theory search (integer-open leaf)
};

/// Stable machine-readable name; kNone maps to "" so emitters can test
/// emptiness instead of comparing enums.
[[nodiscard]] constexpr const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kNone: return "";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kConflictBudget: return "conflict_budget";
    case StopReason::kDecisionBudget: return "decision_budget";
    case StopReason::kPropagationBudget: return "propagation_budget";
    case StopReason::kMemoryCeiling: return "memory_ceiling";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kFaultInjected: return "fault_injected";
    case StopReason::kDegraded: return "degraded";
  }
  return "";
}

/// Combines reasons from multiple workers / probes into the one most worth
/// reporting. Ordering: an injected fault or explicit cancellation beats a
/// resource ceiling, hard ceilings beat soft search budgets, and any real
/// reason beats kDegraded/kNone.
[[nodiscard]] constexpr StopReason combine(StopReason a, StopReason b) {
  constexpr auto rank = [](StopReason r) {
    switch (r) {
      case StopReason::kFaultInjected: return 8;
      case StopReason::kCancelled: return 7;
      case StopReason::kMemoryCeiling: return 6;
      case StopReason::kDeadline: return 5;
      case StopReason::kConflictBudget: return 4;
      case StopReason::kDecisionBudget: return 3;
      case StopReason::kPropagationBudget: return 2;
      case StopReason::kDegraded: return 1;
      case StopReason::kNone: return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

/// Per-check resource ceilings. Every field is independent and 0 means
/// unlimited; a default-constructed budget changes nothing. The memory
/// ceiling governs the solver-owned pools: clause arena bytes + BigInt
/// heap bytes + simplex bytes (tableau rows and column lists, variable
/// states, bound trail; see docs/ROBUSTNESS.md).
struct ResourceBudget {
  unsigned deadline_ms = 0;            ///< wall clock per check (0 = none)
  std::uint64_t max_conflicts = 0;     ///< CDCL conflicts per check
  std::uint64_t max_decisions = 0;     ///< CDCL decisions per check
  std::uint64_t max_propagations = 0;  ///< unit propagations per check
  std::uint64_t max_memory_bytes = 0;  ///< arena + BigInt heap + pools

  [[nodiscard]] constexpr bool unlimited() const {
    return deadline_ms == 0 && max_conflicts == 0 && max_decisions == 0 &&
           max_propagations == 0 && max_memory_bytes == 0;
  }
};

/// Thrown (from a cooperative cancellation point) when the deadline passes,
/// a budget ceiling is hit or a cancel is observed; callers catch it at
/// the check boundary and surface the reason.
/// Intentionally not a std::exception: nothing between the cancellation
/// point and the check boundary is allowed to swallow it.
struct Stop {
  StopReason reason = StopReason::kNone;
};

}  // namespace advocat::util
