// Sparse rows, the sweeping eliminator, and the incremental simplex.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "linalg/eliminator.hpp"
#include "linalg/simplex.hpp"
#include "linalg/sparse_row.hpp"
#include "linalg/tableau.hpp"

namespace advocat::linalg {
namespace {

using util::BigInt;

SparseRow row_of(std::initializer_list<std::pair<int, int>> entries,
                 int constant = 0) {
  SparseRow r;
  for (const auto& [col, coeff] : entries) r.add(col, Rational(coeff));
  r.add_constant(Rational(constant));
  return r;
}

TEST(SparseRow, AddMergesAndCancels) {
  SparseRow r;
  r.add(3, Rational(2));
  r.add(1, Rational(5));
  r.add(3, Rational(-2));  // cancels
  EXPECT_EQ(r.coeff(3), Rational(0));
  EXPECT_EQ(r.coeff(1), Rational(5));
  EXPECT_EQ(r.min_col(), 1);
  EXPECT_EQ(r.entries().size(), 1u);
}

TEST(SparseRow, AddScaledMergesSortedEntries) {
  SparseRow a = row_of({{0, 1}, {2, 3}}, 5);
  const SparseRow b = row_of({{1, 2}, {2, -3}}, -5);
  a.add_scaled(b, Rational(1));
  EXPECT_EQ(a.coeff(0), Rational(1));
  EXPECT_EQ(a.coeff(1), Rational(2));
  EXPECT_EQ(a.coeff(2), Rational(0));
  EXPECT_TRUE(a.constant().is_zero());
}

TEST(SparseRow, NormalizeIntegerClearsDenominators) {
  SparseRow r;
  r.add(0, Rational(BigInt(1), BigInt(2)));
  r.add(1, Rational(BigInt(-1), BigInt(3)));
  r.add_constant(Rational(BigInt(1), BigInt(6)));
  r.normalize_integer();
  EXPECT_EQ(r.coeff(0), Rational(3));
  EXPECT_EQ(r.coeff(1), Rational(-2));
  EXPECT_EQ(r.constant(), Rational(1));
}

TEST(SparseRow, NormalizeIntegerForcesPositiveLead) {
  SparseRow r = row_of({{0, -2}, {1, 4}});
  r.normalize_integer();
  EXPECT_EQ(r.coeff(0), Rational(1));
  EXPECT_EQ(r.coeff(1), Rational(-2));
}

TEST(SparseRow, ToStringRendering) {
  const SparseRow r = row_of({{0, 1}, {1, -2}}, 3);
  const auto name = [](std::int32_t c) {
    return std::string("x").append(std::to_string(c));
  };
  EXPECT_EQ(r.to_string(name), "x0 - 2*x1 + 3 = 0");
}

TEST(Eliminator, SimpleSweep) {
  // x0 + x1 - k = 0 ; k - x2 = 0 (eliminate k) => x0 + x1 - x2 = 0.
  std::vector<SparseRow> rows;
  rows.push_back(row_of({{0, 1}, {1, 1}, {9, -1}}));
  rows.push_back(row_of({{9, 1}, {2, -1}}));
  auto result = Eliminator::eliminate(
      rows, [](std::int32_t c) { return c >= 9; });
  ASSERT_EQ(result.equalities.size(), 1u);
  const SparseRow& inv = result.equalities[0];
  EXPECT_EQ(inv.coeff(0), Rational(1));
  EXPECT_EQ(inv.coeff(1), Rational(1));
  EXPECT_EQ(inv.coeff(2), Rational(-1));
  EXPECT_FALSE(result.inconsistent);
}

TEST(Eliminator, DetectsInconsistency) {
  std::vector<SparseRow> rows;
  rows.push_back(row_of({{9, 1}}, 1));   // k + 1 = 0
  rows.push_back(row_of({{9, 1}}, -1));  // k - 1 = 0
  auto result = Eliminator::eliminate(
      rows, [](std::int32_t c) { return c >= 9; });
  EXPECT_TRUE(result.inconsistent);
}

TEST(Eliminator, KeepsRowsWithoutEliminatedColumns) {
  std::vector<SparseRow> rows;
  rows.push_back(row_of({{0, 1}, {1, 1}}, -1));
  auto result = Eliminator::eliminate(
      rows, [](std::int32_t c) { return c >= 9; });
  ASSERT_EQ(result.equalities.size(), 1u);
  EXPECT_EQ(result.equalities[0].coeff(0), Rational(1));
}

TEST(Eliminator, DerivesSameSignInequalities) {
  // k0 + k1 + x0 - 2 = 0 with k0,k1 >= 0  =>  x0 - 2 <= 0.
  std::vector<SparseRow> rows;
  rows.push_back(row_of({{9, 1}, {10, 1}, {0, 1}}, -2));
  auto result = Eliminator::eliminate(
      rows, [](std::int32_t c) { return c >= 9; },
      /*derive_inequalities=*/true);
  ASSERT_EQ(result.inequalities.size(), 1u);
  EXPECT_EQ(result.inequalities[0].coeff(0), Rational(1));
  EXPECT_EQ(result.inequalities[0].constant(), Rational(-2));
}

TEST(Eliminator, RrefIsCanonical) {
  std::vector<SparseRow> rows;
  rows.push_back(row_of({{0, 2}, {1, 4}}, 2));
  rows.push_back(row_of({{0, 1}, {1, 1}}, 0));
  ASSERT_TRUE(Eliminator::reduce_rref(rows));
  ASSERT_EQ(rows.size(), 2u);
  // RREF: x0 = 1, x1 = -1 (leading ones, zero elsewhere).
  EXPECT_EQ(rows[0].coeff(0), Rational(1));
  EXPECT_EQ(rows[0].coeff(1), Rational(0));
  EXPECT_EQ(rows[1].coeff(0), Rational(0));
  EXPECT_EQ(rows[1].coeff(1), Rational(1));
}

// Property: eliminating a random consistent system never reports
// inconsistency, and every surviving equality is a valid consequence (the
// designated solution satisfies it).
class EliminatorProperty : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kNumVars = 12;
  static constexpr int kNumElim = 6;  // columns 0..5 are swept

  // Random rows through a designated solution; with `sparse` most
  // coefficients are zero, so pivots cause fill-in and cancellation.
  static std::vector<SparseRow> random_rows(std::mt19937_64& rng,
                                            const std::vector<int>& solution,
                                            bool sparse) {
    std::uniform_int_distribution<int> coeff(-3, 3);
    std::uniform_int_distribution<int> keep(0, 2);
    std::vector<SparseRow> rows;
    for (int i = 0; i < 10; ++i) {
      SparseRow r;
      int dot = 0;
      for (int c = 0; c < kNumVars; ++c) {
        const int a = coeff(rng);
        if (a != 0 && (!sparse || keep(rng) == 0)) {
          r.add(c, Rational(a));
          dot += a * solution[static_cast<std::size_t>(c)];
        }
      }
      r.add_constant(Rational(-dot));
      rows.push_back(std::move(r));
    }
    return rows;
  }

  static std::vector<int> random_solution(std::mt19937_64& rng) {
    std::uniform_int_distribution<int> val(0, 4);
    std::vector<int> solution(kNumVars);
    for (auto& v : solution) v = val(rng);
    return solution;
  }

  static EliminationResult sweep(std::vector<SparseRow> rows) {
    return Eliminator::eliminate(
        std::move(rows), [](std::int32_t c) { return c < kNumElim; },
        /*derive_inequalities=*/true);
  }
};

TEST_P(EliminatorProperty, SolutionsSurviveProjection) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::vector<int> solution = random_solution(rng);
  const std::vector<SparseRow> rows = random_rows(rng, solution, false);
  auto result = Eliminator::eliminate(
      rows, [](std::int32_t c) { return c < kNumElim; },
      /*derive_inequalities=*/false);
  EXPECT_FALSE(result.inconsistent);
  for (const SparseRow& inv : result.equalities) {
    Rational acc = inv.constant();
    for (const auto& e : inv.entries()) {
      EXPECT_GE(e.col, kNumElim) << "eliminated column survived";
      acc += e.coeff * Rational(solution[static_cast<std::size_t>(e.col)]);
    }
    EXPECT_TRUE(acc.is_zero()) << "projected equality violated by solution";
  }
}

// Oracle: with the swept columns numbered first, the projection is exactly
// the rows of the full system's RREF that lead with a kept column — whatever
// pivot order the sweep chose, and whatever order the rows arrive in.
TEST_P(EliminatorProperty, EqualitiesMatchRrefOracle) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::vector<int> solution = random_solution(rng);
  for (const bool sparse : {false, true}) {
    std::vector<SparseRow> rows = random_rows(rng, solution, sparse);

    std::vector<SparseRow> oracle = rows;
    ASSERT_TRUE(Eliminator::reduce_rref(oracle));
    std::erase_if(oracle,
                  [](const SparseRow& r) { return r.min_col() < kNumElim; });
    for (SparseRow& r : oracle) r.normalize_integer();
    std::sort(oracle.begin(), oracle.end(),
              [](const SparseRow& a, const SparseRow& b) {
                return a.min_col() < b.min_col();
              });

    const EliminationResult result = sweep(rows);
    EXPECT_FALSE(result.inconsistent);
    EXPECT_EQ(result.equalities, oracle) << "sparse=" << sparse;

    std::shuffle(rows.begin(), rows.end(), rng);
    EXPECT_EQ(sweep(rows).equalities, oracle)
        << "row order changed the projection, sparse=" << sparse;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Every swept column of a ring ties at degree 2, so the pivot sequence
// rests entirely on the (degree, column) and (size, row) tie-breaks. Ring
// equation i reads k_i + k_{i+1} = x_i over an even ring of six; it is
// input row 5 - i, so column order and row order run against each other.
TEST(Eliminator, RingTiesBreakToLowestColumn) {
  constexpr int n = 6;
  std::vector<SparseRow> rows;
  for (int i = n - 1; i >= 0; --i) {
    rows.push_back(row_of({{10 + i, 1}, {10 + (i + 1) % n, 1}, {i, -1}}));
  }
  const auto result = Eliminator::eliminate(
      rows, [](std::int32_t c) { return c >= 10; });
  EXPECT_FALSE(result.inconsistent);
  // k0 pivots on equation 5 (input row 0, not row 5), then k1..k4 on
  // equations 1..4; equation 0 collects the alternating sum. Taking the
  // highest column first would retire equation 0 instead of 4, and the
  // highest row first equation 0 instead of 5.
  EXPECT_EQ(result.pivot_count, 5u);
  EXPECT_EQ(result.row_ops, 5u);
  const auto text = [](const std::vector<SparseRow>& rows) {
    std::vector<std::string> out;
    for (const SparseRow& r : rows) {
      out.push_back(r.to_string(
          [](std::int32_t c) {
            return std::string("x").append(std::to_string(c));
          }));
    }
    return out;
  };
  EXPECT_EQ(text(result.equalities),
            std::vector<std::string>{"x0 - x1 + x2 - x3 + x4 - x5 = 0"});
  // Rendered with "= 0"; each reads "-x_i <= 0".
  EXPECT_EQ(text(result.inequalities),
            (std::vector<std::string>{"-x1 = 0", "-x2 = 0", "-x3 = 0",
                                      "-x4 = 0", "-x5 = 0"}));
}

// ----------------------------------------------------------------- simplex

// Test-side ledger of asserted constraints, each as a ≤-form over problem
// columns, so Farkas certificates can be validated by exact
// re-substitution: Σ mult·lhs must cancel every column and Σ mult·rhs
// must come out negative (i.e. the combination reads 0 ≤ negative).
class FarkasLedger {
 public:
  void upper(int tag, const SparseRow& lhs, const Rational& b) {
    forms_.emplace(tag, std::make_pair(lhs, b));
  }
  void lower(int tag, const SparseRow& lhs, const Rational& b) {
    SparseRow neg = lhs;
    neg.scale(Rational(-1));
    forms_.emplace(tag, std::make_pair(std::move(neg), -b));
  }

  void expect_valid(const std::vector<FarkasTerm>& cert) const {
    ASSERT_FALSE(cert.empty());
    SparseRow lhs;
    Rational rhs;
    for (const FarkasTerm& t : cert) {
      EXPECT_GT(t.mult, Rational(0)) << "multipliers must be positive";
      const auto it = forms_.find(t.tag);
      ASSERT_NE(it, forms_.end()) << "certificate cites unknown tag " << t.tag;
      lhs.add_scaled(it->second.first, t.mult);
      rhs += it->second.second * t.mult;
    }
    EXPECT_FALSE(lhs.has_variables())
        << "Farkas combination must cancel every variable";
    EXPECT_LT(rhs, Rational(0)) << "combination must read 0 <= negative";
  }

 private:
  std::map<int, std::pair<SparseRow, Rational>> forms_;
};

SparseRow form_of(std::initializer_list<std::pair<int, int>> entries) {
  SparseRow r;
  for (const auto& [col, coeff] : entries) r.add(col, Rational(coeff));
  return r;
}

TEST(Simplex, FeasibleVertexSatisfiesAllBoundsAndDefinitions) {
  // x + y <= 4, x - y <= 0, x >= 1: feasible.
  Simplex s;
  const int x = s.var(0);
  const int y = s.var(1);
  const int sum = s.add_slack({{0, 1}, {1, 1}});
  const int diff = s.add_slack({{0, 1}, {1, -1}});
  ASSERT_TRUE(s.assert_upper(sum, Rational(4), 1));
  ASSERT_TRUE(s.assert_upper(diff, Rational(0), 2));
  ASSERT_TRUE(s.assert_lower(x, Rational(1), 3));
  ASSERT_TRUE(s.check());
  const Rational vx = s.value(x);
  const Rational vy = s.value(y);
  EXPECT_LE(vx + vy, Rational(4));
  EXPECT_LE(vx - vy, Rational(0));
  EXPECT_GE(vx, Rational(1));
  // Slack values track their defining forms exactly through pivoting.
  EXPECT_EQ(s.value(sum), vx + vy);
  EXPECT_EQ(s.value(diff), vx - vy);
}

TEST(Simplex, SolvesEqualitySystemsExactly) {
  // x + y = 10 and x - y = 4 (equalities = upper+lower on one slack each)
  // have the unique solution x = 7, y = 3 — pivoting must land on it.
  Simplex s;
  const int x = s.var(0);
  const int y = s.var(1);
  const int sum = s.add_slack({{0, 1}, {1, 1}});
  const int diff = s.add_slack({{0, 1}, {1, -1}});
  ASSERT_TRUE(s.assert_upper(sum, Rational(10), 1));
  ASSERT_TRUE(s.assert_lower(sum, Rational(10), 2));
  ASSERT_TRUE(s.assert_upper(diff, Rational(4), 3));
  ASSERT_TRUE(s.assert_lower(diff, Rational(4), 4));
  ASSERT_TRUE(s.check());
  EXPECT_EQ(s.value(x), Rational(7));
  EXPECT_EQ(s.value(y), Rational(3));
  EXPECT_GT(s.stats().pivots, 0u);
}

TEST(Simplex, FarkasCertificateOfCyclicSystemResubstitutes) {
  // x - y <= -1, y - z <= -1, z - x <= -1: the cycle sums to 0 <= -3.
  Simplex s;
  FarkasLedger ledger;
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {2, 0}};
  int tag = 10;
  for (const auto& [a, b] : edges) {
    const int sl = s.add_slack({{a, 1}, {b, -1}});
    ledger.upper(tag, form_of({{a, 1}, {b, -1}}), Rational(-1));
    ASSERT_TRUE(s.assert_upper(sl, Rational(-1), tag));
    ++tag;
  }
  ASSERT_FALSE(s.check());
  ledger.expect_valid(s.farkas());
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Simplex, CrossingBoundsConflictImmediately) {
  // x <= 2 then x >= 5 contradict at assertion time; the certificate is
  // the two bounds, multiplier 1 each.
  Simplex s;
  FarkasLedger ledger;
  const int x = s.var(7);
  ledger.upper(1, form_of({{7, 1}}), Rational(2));
  ledger.lower(2, form_of({{7, 1}}), Rational(5));
  ASSERT_TRUE(s.assert_upper(x, Rational(2), 1));
  ASSERT_FALSE(s.assert_lower(x, Rational(5), 2));
  ledger.expect_valid(s.farkas());
}

TEST(Simplex, RetractRestoresFeasibilityAndReusesBasis) {
  // Incremental contract: bounds retract in LIFO order; the tableau and
  // basis persist, so the re-check after a retract needs no new slacks
  // and the certificate machinery keeps working on the same instance.
  Simplex s;
  FarkasLedger ledger;
  const int x = s.var(0);
  const int y = s.var(1);
  const int sum = s.add_slack({{0, 1}, {1, 1}});
  ledger.upper(1, form_of({{0, 1}, {1, 1}}), Rational(3));
  ledger.lower(2, form_of({{0, 1}}), Rational(0));
  ledger.lower(3, form_of({{1, 1}}), Rational(0));
  ASSERT_TRUE(s.assert_upper(sum, Rational(3), 1));
  ASSERT_TRUE(s.assert_lower(x, Rational(0), 2));
  ASSERT_TRUE(s.assert_lower(y, Rational(0), 3));
  ASSERT_TRUE(s.check());

  const std::size_t mark = s.mark();
  ledger.lower(4, form_of({{0, 1}}), Rational(5));
  ASSERT_TRUE(s.assert_lower(x, Rational(5), 4));
  ASSERT_FALSE(s.check());  // x >= 5 vs x + y <= 3, y >= 0
  ledger.expect_valid(s.farkas());

  s.retract_to(mark);
  ASSERT_TRUE(s.check()) << "retracting the probe restores feasibility";
  ASSERT_TRUE(s.assert_lower(x, Rational(2), 5));
  ASSERT_TRUE(s.check());
  EXPECT_GE(s.value(x), Rational(2));
  EXPECT_LE(s.value(x) + s.value(y), Rational(3));
}

TEST(Simplex, RetractOnEmptyTrailAndPastMarkIsSafe) {
  // Edge cases of the bound-trail retraction: an empty trail, a mark
  // beyond the trail end (pop "past the first mark"), and repeated
  // retraction to zero must all be exact no-ops — and a full retraction
  // must restore the had-no-bound state, not leave a stale bound behind.
  Simplex s;
  const int x = s.var(0);
  s.retract_to(0);  // empty trail: nothing to pop
  EXPECT_EQ(s.mark(), 0u);

  ASSERT_TRUE(s.assert_upper(x, Rational(4), 1));
  const std::size_t m = s.mark();
  s.retract_to(m + 100);  // mark beyond the trail: no-op, nothing popped
  EXPECT_EQ(s.mark(), m);

  s.retract_to(0);
  EXPECT_EQ(s.mark(), 0u);
  s.retract_to(0);  // idempotent on the now-empty trail
  EXPECT_EQ(s.mark(), 0u);

  // x is unbounded again: a bound far above the retracted upper bound
  // must be accepted without conflict...
  ASSERT_TRUE(s.assert_lower(x, Rational(10), 2));
  ASSERT_TRUE(s.check());
  EXPECT_GE(s.value(x), Rational(10));
  s.retract_to(0);
  // ...and after retracting that too, a bound crossing it must also be
  // accepted — a leaked lower bound of 10 would reject upper = -5 here.
  ASSERT_TRUE(s.assert_upper(x, Rational(-5), 3));
  ASSERT_TRUE(s.check());
  EXPECT_LE(s.value(x), Rational(-5));
}

// Property: random bound probes over a fixed tableau. Feasible checks
// must produce values inside every asserted bound; infeasible checks must
// produce a certificate that re-substitutes to 0 <= negative.
class SimplexProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexProperty, VerdictsAreCertified) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> bound(-6, 6);
  const int num_vars = 5;
  Simplex s;
  FarkasLedger ledger;
  std::vector<std::pair<int, SparseRow>> slacks;  // (simplex var, form)
  for (int i = 0; i < 4; ++i) {
    std::vector<std::pair<std::int32_t, std::int64_t>> terms;
    SparseRow form;
    for (int c = 0; c < num_vars; ++c) {
      const int a = coeff(rng);
      if (a != 0) {
        terms.emplace_back(c, a);
        form.add(c, Rational(a));
      }
    }
    if (terms.empty()) continue;
    slacks.emplace_back(s.add_slack(terms), std::move(form));
  }
  for (int c = 0; c < num_vars; ++c) s.var(c);

  int tag = 0;
  std::vector<std::pair<int, bool>> asserted;  // (tag is upper?) per bound
  for (int round = 0; round < 40; ++round) {
    const bool on_slack = !slacks.empty() && (rng() & 1) != 0;
    const std::size_t pick =
        on_slack ? rng() % slacks.size()
                 : static_cast<std::size_t>(rng() % num_vars);
    const int var = on_slack ? slacks[pick].first
                             : s.var(static_cast<std::int32_t>(pick));
    const SparseRow form =
        on_slack ? slacks[pick].second
                 : form_of({{static_cast<int>(pick), 1}});
    const Rational b(bound(rng));
    const bool upper = (rng() & 1) != 0;
    ++tag;
    if (upper) ledger.upper(tag, form, b);
    else ledger.lower(tag, form, b);
    const bool ok = upper ? s.assert_upper(var, b, tag)
                          : s.assert_lower(var, b, tag);
    if (!ok || !s.check()) {
      ledger.expect_valid(s.farkas());
      return;  // certified infeasibility ends the probe sequence
    }
    // Feasible: the vertex satisfies every slack bound we asserted.
    for (const auto& [sv, sform] : slacks) {
      Rational acc;
      for (const Entry& e : sform.entries()) {
        acc += e.coeff * s.value(s.var(e.col));
      }
      EXPECT_EQ(acc, s.value(sv)) << "slack drifted from its definition";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// The column lists: after every add, row pivot and pivot merge each column
// lists exactly the rows holding it, ascending, and audit() agrees.
TEST(Tableau, ColumnListsFollowEveryRowRewrite) {
  Tableau t;
  const auto rows = [&](std::int32_t col) {
    const auto span = t.rows_with(col);
    return std::vector<std::uint32_t>(span.begin(), span.end());
  };
  const auto row_is = [&](std::size_t r, const SparseRow& want) {
    return std::equal(t.row(r).begin(), t.row(r).end(),
                      want.entries().begin(), want.entries().end());
  };
  using Rows = std::vector<std::uint32_t>;
  t.add_row(10, form_of({{0, 1}, {2, 3}}).entries());
  t.add_row(11, form_of({{1, 1}, {2, -1}}).entries());
  t.add_row(3, form_of({{0, 2}, {1, 1}}).entries());
  EXPECT_EQ(rows(0), (Rows{0, 2}));
  EXPECT_EQ(rows(1), (Rows{1, 2}));
  EXPECT_EQ(rows(2), (Rows{0, 1}));
  EXPECT_TRUE(rows(9).empty()) << "a column past the lists holds no rows";
  EXPECT_EQ(t.col_count(2), 2);
  EXPECT_EQ(t.audit(), "");

  // Pivot row 0 (x10 = x0 + 3·x2) onto column 2:
  // x2 = (1/3)·x10 − (1/3)·x0. Column 2 leaves the row, 10 joins it last.
  const Rational third(BigInt(1), BigInt(3));
  t.pivot_row(0, 2, 10, third);
  t.set_owner(0, 2);
  SparseRow want;
  want.add(0, -third);
  want.add(10, third);
  EXPECT_TRUE(row_is(0, want));
  EXPECT_EQ(rows(0), (Rows{0, 2}));
  EXPECT_EQ(rows(2), (Rows{1}));
  EXPECT_EQ(rows(10), (Rows{0}));
  EXPECT_EQ(t.audit(), "");

  // Substitute column 1 := x4 + x5 - x2 into row 2 (the pivot merge):
  // column 1 leaves the row, 4 and 5 join it, and 2 joins it in
  // ascending place.
  t.pivot_merge(2, 1, Rational(1),
                form_of({{2, -1}, {4, 1}, {5, 1}}).entries());
  EXPECT_EQ(rows(1), (Rows{1}));
  EXPECT_EQ(rows(2), (Rows{1, 2}));
  EXPECT_EQ(rows(4), (Rows{2}));
  EXPECT_EQ(rows(5), (Rows{2}));
  EXPECT_EQ(t.audit(), "");

  // Pivot row 2 (x3 = 2·x0 − x2 + x4 + x5) onto its last column: the
  // owner joins before column 4, x5 = x3 − 2·x0 + x2 − x4.
  t.pivot_row(2, 5, 3, Rational(1));
  t.set_owner(2, 5);
  EXPECT_TRUE(row_is(2, form_of({{0, -2}, {2, 1}, {3, 1}, {4, -1}})));
  EXPECT_EQ(rows(3), (Rows{2}));
  EXPECT_EQ(rows(4), (Rows{2}));
  EXPECT_TRUE(rows(5).empty());
  EXPECT_EQ(t.audit(), "");

  // Pivot row 1 (x11 = x1 − x2) onto its first column: x1 = x11 + x2.
  t.pivot_row(1, 1, 11, Rational(1));
  t.set_owner(1, 1);
  EXPECT_TRUE(row_is(1, form_of({{2, 1}, {11, 1}})));
  EXPECT_TRUE(rows(1).empty());
  EXPECT_EQ(rows(2), (Rows{1, 2}));
  EXPECT_EQ(rows(11), (Rows{1}));
  EXPECT_EQ(t.audit(), "");
}

// A pivot merge whose shared column cancels to zero drops it from the row
// and from the column's list; the surviving shared column keeps its place.
TEST(Tableau, PivotMergeCancellationUnlinksTheColumn) {
  Tableau t;
  t.add_row(10, form_of({{0, 2}, {1, 3}, {2, 2}}).entries());
  t.add_row(11, form_of({{1, 1}, {3, 1}}).entries());
  ASSERT_EQ(t.audit(), "");

  // Column 0 := x1 - x2 + x4, weighted by row 0's coefficient 2: column 1
  // becomes 3 + 2 = 5, column 2 cancels (2 - 2 = 0), column 4 joins as 2.
  t.pivot_merge(0, 0, Rational(2), form_of({{1, 1}, {2, -1}, {4, 1}}).entries());
  EXPECT_EQ(t.row(0).size(), 2u);
  EXPECT_EQ(t.coeff(0, 1), Rational(5));
  EXPECT_EQ(t.find(0, 2), nullptr) << "a cancelled column is not stored";
  EXPECT_EQ(t.coeff(0, 4), Rational(2));
  EXPECT_TRUE(t.rows_with(0).empty());
  EXPECT_TRUE(t.rows_with(2).empty()) << "the cancelled column is unlinked";
  EXPECT_EQ(t.col_count(1), 2);
  EXPECT_EQ(t.col_count(4), 1);
  EXPECT_EQ(t.audit(), "");
}

// A row grown by one pivot merge and shrunk by the next keeps exact lists
// and capacity counts at every step, and its values stay those of the
// same substitutions on a SparseRow.
TEST(Tableau, RowGrowsThenShrinks) {
  Tableau t;
  t.add_row(20, form_of({{0, 1}, {9, 1}}).entries());
  t.add_row(21, form_of({{0, 1}}).entries());
  SparseRow mirror = form_of({{0, 1}, {9, 1}});
  ASSERT_EQ(t.audit(), "");

  // Grow: column 0 := Σ x1..x6.
  const SparseRow wide =
      form_of({{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}});
  t.pivot_merge(0, 0, Rational(1), wide.entries());
  mirror.add(0, Rational(-1));
  mirror.add_scaled(wide, Rational(1));
  EXPECT_EQ(t.row(0).size(), 7u);
  EXPECT_TRUE(std::equal(t.row(0).begin(), t.row(0).end(),
                         mirror.entries().begin(), mirror.entries().end()));
  for (std::int32_t c = 1; c <= 6; ++c) EXPECT_EQ(t.col_count(c), 1) << c;
  EXPECT_EQ(t.col_count(0), 1) << "row 1 still holds column 0";
  EXPECT_EQ(t.audit(), "");

  // Shrink: column 3 := x7 - x1 - x2 - x4 - x5 - x6 cancels five columns.
  const SparseRow narrow =
      form_of({{1, -1}, {2, -1}, {4, -1}, {5, -1}, {6, -1}, {7, 1}});
  t.pivot_merge(0, 3, Rational(1), narrow.entries());
  mirror.add(3, Rational(-1));
  mirror.add_scaled(narrow, Rational(1));
  EXPECT_EQ(t.row(0).size(), 2u);
  EXPECT_TRUE(std::equal(t.row(0).begin(), t.row(0).end(),
                         mirror.entries().begin(), mirror.entries().end()));
  for (const std::int32_t c : {1, 2, 3, 4, 5, 6}) {
    EXPECT_TRUE(t.rows_with(c).empty()) << c;
  }
  EXPECT_EQ(t.col_count(7), 1);
  EXPECT_EQ(t.col_count(9), 1);
  EXPECT_EQ(t.audit(), "");
}

// A seeded sequence of slack definitions, bound asserts, checks and
// retractions on one small Simplex, with the deep audit (the tableau's
// row identities and its column lists) clean after every call.
class SimplexAuditedSequence : public ::testing::TestWithParam<int> {};

TEST_P(SimplexAuditedSequence, AuditCleanAfterEveryCall) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::uniform_int_distribution<int> coeff(-4, 4);
  std::uniform_int_distribution<int> bound(-8, 8);
  constexpr int kCols = 7;
  Simplex s;
  std::vector<int> vars;
  for (int c = 0; c < kCols; ++c) vars.push_back(s.var(c));
  std::vector<std::size_t> marks;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (int step = 0; step < 300; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 10);
    if (op < 2) {
      std::vector<std::pair<std::int32_t, std::int64_t>> terms;
      for (int c = 0; c < kCols; ++c) {
        const int a = (rng() % 2 == 0) ? coeff(rng) : 0;
        if (a != 0) terms.emplace_back(c, a);
      }
      if (terms.empty()) terms.emplace_back(static_cast<int>(rng() % kCols), 1);
      vars.push_back(s.add_slack(terms));
    } else if (op < 6) {
      const int x = vars[rng() % vars.size()];
      const Rational b(bound(rng));
      if (rng() % 2 == 0) (void)s.assert_upper(x, b, step);
      else (void)s.assert_lower(x, b, step);
    } else if (op < 8) {
      if (s.check()) ++feasible;
      else ++infeasible;
    } else if (op == 8) {
      marks.push_back(s.mark());
    } else if (!marks.empty()) {
      s.retract_to(marks.back());
      marks.pop_back();
    } else {
      s.retract_to(0);
    }
    ASSERT_EQ(s.audit(), "") << "after step " << step << " (op " << op << ")";
  }
  EXPECT_GT(feasible + infeasible, 0u);
  EXPECT_GT(s.stats().pivots, 0u) << "the sequence must exercise pivots";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexAuditedSequence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace advocat::linalg
