// The theory seam of the native CDCL(T) solver.
//
// Both theory layers — interval propagation (in search_context.cpp) and the
// exact rational simplex (simplex_theory.hpp) — consume the *same* stream
// of asserted linear rows and speak the same provenance language back to
// the boolean search:
//
//  - A `Row` is the canonical constraint form  Σ coeff·var ≤ bound  over
//    integer-variable indices. Each atom literal asserts one Row (a true
//    ≤ atom its row; a false one the strict complement  −Σ ≤ −bound−1,
//    exact over integers — equalities are gates over two ≤ atoms), so
//    activating a row is always justified by exactly one atom literal.
//  - Every theory deduction is explained as a set of *row tags* naming
//    the asserted rows it used (indices into the activation order, mapping
//    back to the activating atom literals). First-UIP conflict analysis
//    resolves those atoms exactly like clause antecedents, which is what
//    lets refutations learned from either theory persist across checks.
//
// The layers divide the work by strength and cost: interval propagation is
// cheap, runs to a budget on every assertion batch, and carries per-bound
// provenance for eager atom entailment; the simplex holds the same rows'
// bounds in step with the trail, is exact and complete over the rationals,
// explains interval conflicts with its Farkas rows, and decides the
// rows when tightening exhausts its budget. At a full boolean assignment
// it is the leaf decision: branch-on-rational-vertex cuts complete the
// rows over the integers, or refute them.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace advocat::smt::theory {

/// Canonical asserted constraint: Σ terms ≤ bound. Terms are (integer
/// variable index, coefficient), sorted by variable, no zero coefficients.
struct Row {
  std::vector<std::pair<int, std::int64_t>> terms;
  std::int64_t bound = 0;
};

/// One integer variable's value in a leaf model.
struct Pin {
  int var = 0;
  std::int64_t value = 0;
};

}  // namespace advocat::smt::theory
