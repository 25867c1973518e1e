// Deterministic fault injection for robustness soak tests.
//
// A fault *site* is an instrumented point in the solver stack; each call
// to fire() counts one arrival at that site, and a configured schedule
// says which arrival numbers fault. Schedules come from the
// ADVOCAT_FAULTS environment variable (read once, on first use) or from
// configure() in tests. With no schedule configured every site is a
// single relaxed atomic load on an already-slow path — the instrumented
// build is behaviorally and statistically identical to an uninstrumented
// one, so runs stay bit-identical when ADVOCAT_FAULTS is unset.
//
// Spec grammar (see docs/ROBUSTNESS.md):
//   spec   := token (',' token)*
//   token  := site '@' count ['+']
//   site   := arena_alloc | bigint_alloc | theory_timeout
//   count  := 1-based arrival number; a trailing '+' means "this arrival
//             and every later one" instead of exactly once.
// Example: ADVOCAT_FAULTS="theory_timeout@3,bigint_alloc@100+"
// A token naming any other site is skipped with a warning.
//
// Delivery discipline: sites that sit inside mutating code (arena and
// BigInt allocations) must not throw in place — a mid-pivot or
// mid-learning unwind could leave the tableau or watch lists
// half-updated. Those sites call defer(), which latches the fault;
// the solver's cooperative cancellation point (SearchContext::bump_ops)
// consumes the latch via take_deferred() and throws FaultInjected from
// exactly the same program points a deadline can, so every fault unwind
// rides the Timeout-proven exception-safety path.
#pragma once

#include <cstdint>

namespace advocat::util::fault {

enum class Site : unsigned {
  kArenaAlloc = 0,  ///< fail a clause-arena allocation
  kBigIntAlloc,     ///< fail a BigInt heap materialization
  kTheoryTimeout,   ///< time out a theory (simplex) call
  kCount,
};

/// Thrown when an injected fault fires; callers catch it at the check
/// boundary and report Unknown with StopReason::kFaultInjected.
struct FaultInjected {};

/// True when any fault schedule is active. First call reads
/// ADVOCAT_FAULTS; after that it is one relaxed atomic load.
[[nodiscard]] bool enabled();

/// Counts one arrival at `site`; returns true when the schedule says this
/// arrival faults. Never throws — the caller chooses the failure action
/// (throw, or defer()).
[[nodiscard]] bool fire(Site site);

/// fire() + latch: for sites inside mutating code. The latched fault is
/// delivered later, at a safe point, via take_deferred().
void defer(Site site);

/// Consumes a latched fault (one per defer); the caller should throw
/// FaultInjected. Cheap no-op when nothing is latched.
[[nodiscard]] bool take_deferred();

/// Installs a schedule programmatically (tests); nullptr or "" disables
/// injection. Resets all arrival counters and the deferred latch. Returns
/// false when the spec had unparsable tokens (they are skipped with a
/// stderr warning, matching the env-knob convention). Must not race
/// active solves.
bool configure(const char* spec);

/// Arrivals counted at `site` since the last configure().
[[nodiscard]] std::uint64_t arrivals(Site site);

/// Stable site name used by the spec grammar.
[[nodiscard]] const char* name(Site site);

}  // namespace advocat::util::fault
