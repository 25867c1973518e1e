// Portable in-tree SMT backend — no external solver dependency.
//
// The ADVOCAT encodings are boolean combinations of linear integer
// constraints where every integer is bounded: queue occupancies by the
// queue capacity, one-hot state indicators by 1, and the flow-completion
// counters by the equalities tying them to occupancies. That makes a
// small finite-domain solver sound and complete for them:
//
//   1. Tseitin-encode the boolean skeleton of the assertion DAG; each
//      distinct linear atom Σ c·x ≤ k becomes one propositional
//      variable, and an equality Σ c·x = k a gate over the bound pair
//      Σ c·x ≤ k, −Σ c·x ≤ −k.
//   2. CDCL over the skeleton: two-watched-literal unit propagation,
//      first-UIP clause learning with minimization, non-chronological
//      backjumping, an EVSIDS activity heuristic, Luby restarts, and an
//      LBD/activity-managed learned-clause database. Learned clauses
//      persist across check() calls: per-check assumptions are solved on
//      assumption-style decision levels, so every learned clause is
//      entailed by the permanent assertions alone and never has to be
//      discarded.
//   3. Every assigned atom activates one row; bounds propagation runs
//      to fixpoint after each boolean step, prunes on conflict, and
//      explains entailed atoms to the conflict analyzer. The row's bound
//      is asserted in an exact rational simplex in step with the trail,
//      and every interval conflict is explained by its Farkas rows.
//   4. At a full boolean assignment, fail-first branch-and-bound over the
//      remaining integer domains completes (or refutes) the assignment;
//      refuted leaves are learned as blocking clauses over the theory
//      atoms, so shared substructure is never re-refuted.
//   5. Where intervals are structurally weak — tightening exhausts its
//      budget, or a leaf degrades — the simplex (smt/simplex_theory.hpp
//      over linalg/simplex.hpp) decides the active rows outright: Farkas
//      infeasibility explanations become learned theory clauses, and
//      divisibility plus branch-on-rational-vertex cuts extend the
//      refutations to the integers, so infeasible *unbounded* flow
//      systems are refuted instead of degraded.
//
// When neither theory concludes (e.g. the simplex branch budget runs out
// on a rationally feasible, integer-open system) the solver degrades the
// verdict to Unknown instead of claiming Unsat — Sat answers and models
// are always exact.
#pragma once

#include <memory>

#include "smt/expr.hpp"
#include "smt/solver.hpp"

namespace advocat::smt {

/// Creates the native solver over `factory`'s expressions. The factory
/// must outlive the solver.
std::unique_ptr<Solver> make_native_solver(const ExprFactory& factory);

}  // namespace advocat::smt
