#include "linalg/simplex.hpp"

#include <algorithm>

namespace advocat::linalg {
namespace {

// check() iterations after which the entering-variable choice falls back to
// Bland's rule, which terminates from any basis.
constexpr std::uint64_t kBlandAfter = 1000;

}  // namespace

int Simplex::new_var() {
  vars_.emplace_back();
  return static_cast<int>(vars_.size()) - 1;
}

int Simplex::var(std::int32_t col) {
  const auto it = std::lower_bound(
      col_index_.begin(), col_index_.end(), col,
      [](const auto& entry, std::int32_t c) { return entry.first < c; });
  if (it != col_index_.end() && it->first == col) return it->second;
  const int v = new_var();
  col_index_.insert(it, {col, v});
  return v;
}

int Simplex::add_slack(
    const std::vector<std::pair<std::int32_t, std::int64_t>>& terms) {
  // Expand the form over the *current* non-basic variables: a problem
  // variable that is basic is replaced by its row, so the new row respects
  // the tableau invariant from the start.
  SparseRow expr;
  Rational beta;
  for (const auto& [col, coeff] : terms) {
    const int x = var(col);
    const Rational c(coeff);
    const VarState& vs = vars_[static_cast<std::size_t>(x)];
    if (vs.basic_row >= 0) {
      expr.add_scaled(tab_.row(static_cast<std::size_t>(vs.basic_row)), c);
    } else {
      expr.add(x, c);
    }
    beta += c * vs.beta;
  }
  const int s = new_var();
  vars_[static_cast<std::size_t>(s)].beta = std::move(beta);
  vars_[static_cast<std::size_t>(s)].basic_row =
      static_cast<int>(tab_.num_rows());
  tab_.add_row(s, expr.entries());
  return s;
}

void Simplex::retract_to(std::size_t mark) {
  while (trail_.size() > mark) {
    TrailEntry& e = trail_.back();
    VarState& vs = vars_[static_cast<std::size_t>(e.var)];
    if (e.is_hi) {
      vs.has_hi = e.had;
      vs.hi = std::move(e.old_bound);
      vs.hi_tag = e.old_tag;
    } else {
      vs.has_lo = e.had;
      vs.lo = std::move(e.old_bound);
      vs.lo_tag = e.old_tag;
    }
    trail_.pop_back();
  }
  // Bounds only loosened: non-basic variables remain inside theirs, so the
  // current vertex is still a valid starting point for the next check().
}

bool Simplex::assert_upper(int x, const Rational& b, int tag) {
  VarState& vs = vars_[static_cast<std::size_t>(x)];
  if (vs.has_hi && vs.hi <= b) return true;  // keep the tighter bound
  if (vs.has_lo && b < vs.lo) {
    farkas_ = {{tag, Rational(1)}, {vs.lo_tag, Rational(1)}};
    ++stats_.conflicts;
    return false;
  }
  trail_.push_back(TrailEntry{x, true, vs.has_hi, vs.hi, vs.hi_tag});
  vs.has_hi = true;
  vs.hi = b;
  vs.hi_tag = tag;
  if (vs.basic_row < 0 && vs.beta > b) update(x, b);
  return true;
}

bool Simplex::assert_lower(int x, const Rational& b, int tag) {
  VarState& vs = vars_[static_cast<std::size_t>(x)];
  if (vs.has_lo && vs.lo >= b) return true;
  if (vs.has_hi && vs.hi < b) {
    farkas_ = {{tag, Rational(1)}, {vs.hi_tag, Rational(1)}};
    ++stats_.conflicts;
    return false;
  }
  trail_.push_back(TrailEntry{x, false, vs.has_lo, vs.lo, vs.lo_tag});
  vs.has_lo = true;
  vs.lo = b;
  vs.lo_tag = tag;
  if (vs.basic_row < 0 && vs.beta < b) update(x, b);
  return true;
}

void Simplex::update(int x, const Rational& v) {
  const Rational delta = v - vars_[static_cast<std::size_t>(x)].beta;
  for (const std::uint32_t r : tab_.rows_with(x)) {
    vars_[static_cast<std::size_t>(tab_.owner(r))].beta +=
        *tab_.find(r, x) * delta;
  }
  vars_[static_cast<std::size_t>(x)].beta = v;
}

void Simplex::pivot_and_update(int leave, int enter, const Rational& v) {
  if (tick_) tick_();  // deadline poll before any mutation
  ++stats_.pivots;
  const std::size_t ri =
      static_cast<std::size_t>(vars_[static_cast<std::size_t>(leave)].basic_row);
  const Rational a = tab_.coeff(ri, enter);

  // Value update (DdM pivotAndUpdate): leave moves to its bound, enter
  // absorbs the change, every other basic row follows.
  const Rational theta =
      (v - vars_[static_cast<std::size_t>(leave)].beta) / a;
  vars_[static_cast<std::size_t>(leave)].beta = v;
  vars_[static_cast<std::size_t>(enter)].beta += theta;
  // The other rows mentioning `enter`, ascending: their values move now,
  // and the row pivot below substitutes into exactly those rows (it edits
  // the column lists, so they are copied out first).
  pivot_rows_.clear();
  for (const std::uint32_t r : tab_.rows_with(enter)) {
    if (r == ri) continue;
    const Rational& c = *tab_.find(r, enter);
    vars_[static_cast<std::size_t>(tab_.owner(r))].beta += c * theta;
    pivot_rows_.emplace_back(r, c);
  }

  // Row pivot: from  leave = a·enter + rest  derive
  // enter = (1/a)·leave − rest/a  in place, and substitute it in every
  // other row.
  tab_.pivot_row(ri, enter, leave, a.reciprocal());
  const std::span<const Entry> nr = tab_.row(ri);
  for (const auto& [r, c] : pivot_rows_) tab_.pivot_merge(r, enter, c, nr);
  tab_.set_owner(ri, enter);
  vars_[static_cast<std::size_t>(enter)].basic_row = static_cast<int>(ri);
  vars_[static_cast<std::size_t>(leave)].basic_row = -1;
}

void Simplex::explain_row(int x, bool below) {
  // x is basic, stuck outside its bound: every non-basic in its row is at
  // the binding bound of the blocking sign. The certificate is the row
  // variable's violated bound (multiplier 1) plus those binding bounds
  // weighted by |coefficient| — summing the ≤-forms cancels all variables
  // (the tableau row is an identity) and leaves 0 ≤ βx − bound < 0.
  farkas_.clear();
  const VarState& vs = vars_[static_cast<std::size_t>(x)];
  farkas_.push_back(
      {below ? vs.lo_tag : vs.hi_tag, Rational(1)});
  for (const auto& [col, c] :
       tab_.row(static_cast<std::size_t>(vs.basic_row))) {
    const VarState& u = vars_[static_cast<std::size_t>(col)];
    const bool at_hi = below ? !c.is_negative() : c.is_negative();
    farkas_.push_back({at_hi ? u.hi_tag : u.lo_tag,
                       c.is_negative() ? -c : c});
  }
  ++stats_.conflicts;
}

std::string Simplex::audit() const {
  const auto bad = [](const std::string& what) { return what; };
  // Tableau bookkeeping first: everything below trusts the column lists.
  if (std::string what = tab_.audit(); !what.empty()) return bad(what);
  const int nv = static_cast<int>(vars_.size());
  // Basis/nonbasis partition, both directions.
  for (std::size_t r = 0; r < tab_.num_rows(); ++r) {
    const int owner = tab_.owner(r);
    if (owner < 0 || owner >= nv) {
      return bad("row " + std::to_string(r) + ": owner " +
                 std::to_string(owner) + " out of range");
    }
    if (vars_[static_cast<std::size_t>(owner)].basic_row !=
        static_cast<int>(r)) {
      return bad("row " + std::to_string(r) + ": owner " +
                 std::to_string(owner) + " does not point back (basic_row = " +
                 std::to_string(
                     vars_[static_cast<std::size_t>(owner)].basic_row) +
                 ")");
    }
  }
  for (int v = 0; v < nv; ++v) {
    const VarState& vs = vars_[static_cast<std::size_t>(v)];
    if (vs.basic_row >= 0) {
      if (static_cast<std::size_t>(vs.basic_row) >= tab_.num_rows() ||
          tab_.owner(static_cast<std::size_t>(vs.basic_row)) != v) {
        return bad("var " + std::to_string(v) + ": basic_row " +
                   std::to_string(vs.basic_row) + " does not own it");
      }
    }
    // Bounds never cross (assert_upper/lower refuse crossing asserts).
    if (vs.has_lo && vs.has_hi && vs.hi < vs.lo) {
      return bad("var " + std::to_string(v) + ": crossed bounds");
    }
    // Non-basic variables sit inside their bounds at all times (the core
    // Dutertre–de Moura invariant; only basic variables may violate).
    if (vs.basic_row < 0) {
      if ((vs.has_lo && vs.beta < vs.lo) || (vs.has_hi && vs.beta > vs.hi)) {
        return bad("non-basic var " + std::to_string(v) +
                   " outside its bounds");
      }
    }
  }
  // Rows mention only non-basic variables, and the row identity
  // β(owner) = expr(β) holds exactly.
  for (std::size_t r = 0; r < tab_.num_rows(); ++r) {
    Rational sum;
    for (const auto& [col, c] : tab_.row(r)) {
      if (col < 0 || col >= nv) {
        return bad("row " + std::to_string(r) + ": column " +
                   std::to_string(col) + " out of range");
      }
      if (vars_[static_cast<std::size_t>(col)].basic_row >= 0) {
        return bad("row " + std::to_string(r) + ": mentions basic var " +
                   std::to_string(col));
      }
      sum += c * vars_[static_cast<std::size_t>(col)].beta;
    }
    if (!(sum == vars_[static_cast<std::size_t>(tab_.owner(r))].beta)) {
      return bad("row " + std::to_string(r) + ": beta(owner) != expr(beta)");
    }
  }
  for (std::size_t t = 0; t < trail_.size(); ++t) {
    if (trail_[t].var < 0 || trail_[t].var >= nv) {
      return bad("trail entry " + std::to_string(t) + ": var out of range");
    }
  }
  return {};
}

bool Simplex::check() {
  for (std::uint64_t iter = 0;; ++iter) {
    if (tick_) tick_();
    // Bland's rule: smallest violating basic variable.
    int x = -1;
    bool below = false;
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      const VarState& vs = vars_[v];
      if (vs.basic_row < 0) continue;
      if (vs.has_lo && vs.beta < vs.lo) {
        x = static_cast<int>(v);
        below = true;
        break;
      }
      if (vs.has_hi && vs.beta > vs.hi) {
        x = static_cast<int>(v);
        below = false;
        break;
      }
    }
    if (x < 0) return true;

    const VarState& vs = vars_[static_cast<std::size_t>(x)];
    const std::size_t ri = static_cast<std::size_t>(vs.basic_row);
    // Entering variable: the suitable one in the fewest rows (the pivot
    // rewrites exactly those, and the tableau stays sparse), smallest id
    // first; past kBlandAfter iterations, the smallest suitable id.
    const bool bland = iter >= kBlandAfter;
    int enter = -1;
    std::int32_t fewest = 0;
    for (const auto& [col, c] : tab_.row(ri)) {
      const VarState& u = vars_[static_cast<std::size_t>(col)];
      const bool want_up = below == !c.is_negative();
      const bool can = want_up ? (!u.has_hi || u.beta < u.hi)
                               : (!u.has_lo || u.beta > u.lo);
      if (!can) continue;
      const std::int32_t n = tab_.col_count(col);
      if (enter < 0 || n < fewest) {
        enter = col;
        fewest = n;
      }
      if (bland) break;
    }
    if (enter < 0) {
      explain_row(x, below);
      return false;
    }
    pivot_and_update(x, enter, below ? vs.lo : vs.hi);
  }
}

}  // namespace advocat::linalg
