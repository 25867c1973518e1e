#include "smt/simplex_theory.hpp"

#include <algorithm>
#include <limits>

#include "util/fault.hpp"

namespace advocat::smt {

using linalg::Rational;
using util::BigInt;

namespace {

// Internal tag space: rows keep their index (>= 0), pin p becomes -1-p,
// and branch-on-vertex cut bounds use a reserved tag that is filtered out
// of every explanation (over the integers the two branch bounds form a
// tautology, so a refutation of both branches refutes the node without
// them).
constexpr int kBranchTag = std::numeric_limits<int>::min();
inline int pin_tag(int p) { return -1 - p; }
inline bool tag_is_pin(int t) { return t < 0 && t != kBranchTag; }

// Branch-and-bound node budget per integer-complete check. Each node costs
// one simplex re-check; an exhausted budget keeps the honest `Feasible`
// (integer-open) verdict, which the solver degrades to Unknown as before.
constexpr std::uint64_t kBranchBudget = 128;

// floor of an exact rational as a BigInt (BigInt division truncates toward
// zero, so negative non-integral quotients need the -1 adjustment).
BigInt floor_big(const Rational& v) {
  BigInt q = v.num() / v.den();
  if (v.is_negative() && !(v.num() % v.den()).is_zero()) q -= BigInt(1);
  return q;
}

}  // namespace

SimplexTheory::SlackRef SimplexTheory::slack_for(const theory::Row& row) {
  // Hot path: rows are stable immutable atom members, so re-activation
  // across checks resolves by pointer with no string traffic.
  const auto it = row_slack_.find(&row);
  if (it != row_slack_.end()) return it->second;
  const SlackRef ref = intern_slack(row);
  row_slack_.emplace(&row, ref);
  return ref;
}

SimplexTheory::SlackRef SimplexTheory::intern_slack(const theory::Row& row) {
  // Canonical sign: leading coefficient positive. A negated form asserts
  // mirrored bounds on the canonical slack, so an equality's ≤/≥ pair and
  // every re-activation share one tableau row.
  const bool negated = row.terms.front().second < 0;
  std::string key;
  for (const auto& [v, c] : row.terms) {
    key += std::to_string(v) + "*" + std::to_string(negated ? -c : c) + ",";
  }
  auto it = slack_index_.find(key);
  if (it != slack_index_.end()) return {it->second.var, negated};
  std::vector<std::pair<std::int32_t, std::int64_t>> terms;
  terms.reserve(row.terms.size());
  for (const auto& [v, c] : row.terms) {
    terms.emplace_back(static_cast<std::int32_t>(v), negated ? -c : c);
  }
  const SlackRef ref{spx_.add_slack(terms), false};
  slack_index_.emplace(std::move(key), ref);
  return {ref.var, negated};
}

bool SimplexTheory::assert_row(const theory::Row& row, int tag) {
  crossing_.clear();
  bool ok = true;
  if (row.terms.empty()) {  // constant row: 0 ≤ bound, refuted by itself
    ok = row.bound >= 0;
    if (!ok) crossing_.push_back(tag);
  } else {
    const SlackRef s = slack_for(row);
    // Σ terms ≤ b  ⇔  canonical ≤ b   (positive sign)
    //            ⇔  canonical ≥ −b   (negated sign)
    ok = s.negated ? spx_.assert_lower(s.var, Rational(-row.bound), tag)
                   : spx_.assert_upper(s.var, Rational(row.bound), tag);
    if (!ok) collect_farkas_tags(crossing_);
  }
  if (!ok) ++explanations_;
  return ok;
}

void SimplexTheory::collect_farkas_tags(std::vector<int>& used) const {
  for (const linalg::FarkasTerm& t : spx_.farkas()) {
    if (t.tag != kBranchTag) used.push_back(t.tag);
  }
}

void SimplexTheory::capture_farkas(Result& out) const {
  // Only a refutation free of branch-cut bounds is a single Farkas
  // combination of the caller's rows/pins; a branch-tagged term means the
  // contradiction needs that cut as a premise, so no flat multiplier list
  // certifies it.
  for (const linalg::FarkasTerm& t : spx_.farkas()) {
    if (t.tag == kBranchTag) {
      out.farkas.clear();
      return;
    }
  }
  out.farkas = spx_.farkas();
}

SimplexTheory::Verdict SimplexTheory::branch(const std::vector<int>& int_vars,
                                             int depth,
                                             std::vector<int>& used,
                                             Result& out) {
  // Precondition: bounds feasible over the rationals (spx_.check() held).
  int frac = -1;
  for (const int v : int_vars) {
    if (!spx_.value(spx_.var(v)).is_integer()) {
      frac = v;
      break;
    }
  }
  if (frac < 0) {
    out.model.clear();
    for (const int v : int_vars) {
      const Rational& val = spx_.value(spx_.var(v));
      if (!val.num().fits_int64()) return Verdict::Feasible;  // honest open
      out.model.push_back(theory::Pin{v, val.num().to_int64()});
    }
    return Verdict::IntegerModel;
  }
  if (branch_budget_ == 0 || depth > 64) return Verdict::Feasible;
  --branch_budget_;

  const int ext = spx_.var(frac);
  const Rational f(floor_big(spx_.value(ext)));
  auto probe = [&](bool upper_branch) {
    const std::size_t mark = spx_.mark();
    Verdict v;
    const bool ok = upper_branch
                        ? spx_.assert_lower(ext, f + Rational(1), kBranchTag)
                        : spx_.assert_upper(ext, f, kBranchTag);
    if (!ok || !spx_.check()) {
      collect_farkas_tags(used);
      v = Verdict::Infeasible;
    } else {
      v = branch(int_vars, depth + 1, used, out);
    }
    spx_.retract_to(mark);
    return v;
  };
  const Verdict lo = probe(false);
  if (lo == Verdict::IntegerModel) return lo;
  const Verdict hi = probe(true);
  if (hi == Verdict::IntegerModel) return hi;
  if (lo == Verdict::Infeasible && hi == Verdict::Infeasible) {
    return Verdict::Infeasible;  // x ≤ ⌊v⌋ ∨ x ≥ ⌊v⌋+1 is an integer tautology
  }
  return Verdict::Feasible;
}

std::string SimplexTheory::audit() const {
  // Canonical-sign uniqueness: every canonical form owns exactly one
  // slack, every cached slack is canonical (never stored negated), and
  // slack ids are valid tableau variables.
  std::unordered_map<int, const std::string*> owner_of;
  for (const auto& [key, ref] : slack_index_) {
    if (ref.negated) {
      return "slack_index_[" + key + "]: stored negated (non-canonical)";
    }
    if (ref.var < 0 || static_cast<std::size_t>(ref.var) >= spx_.num_vars()) {
      return "slack_index_[" + key + "]: slack var " +
             std::to_string(ref.var) + " out of range";
    }
    const auto [it, fresh] = owner_of.emplace(ref.var, &key);
    if (!fresh) {
      return "slack var " + std::to_string(ref.var) +
             " owned by two canonical forms: " + *it->second + " and " + key;
    }
  }
  // The by-pointer row cache must agree with the canonical index.
  for (const auto& [row, ref] : row_slack_) {
    const bool negated = row->terms.front().second < 0;
    std::string key;
    for (const auto& [v, c] : row->terms) {
      key += std::to_string(v) + "*" + std::to_string(negated ? -c : c) + ",";
    }
    const auto it = slack_index_.find(key);
    if (it == slack_index_.end()) {
      return "row_slack_ entry with no canonical form: " + key;
    }
    if (it->second.var != ref.var || ref.negated != negated) {
      return "row_slack_ entry disagrees with canonical index: " + key;
    }
  }
  return spx_.audit();
}

SimplexTheory::Result SimplexTheory::check(
    const std::vector<theory::Pin>& pins) {
  return decide(pins, nullptr);
}

SimplexTheory::Result SimplexTheory::check_integer(
    const std::vector<int>& int_vars) {
  return decide({}, &int_vars);
}

SimplexTheory::Result SimplexTheory::decide(
    const std::vector<theory::Pin>& pins, const std::vector<int>* int_vars) {
  // Injected theory timeout. Thrown before any bound is asserted, so it
  // unwinds exactly like a deadline tick fired on the first pivot — the
  // host's established recovery path.
  if (util::fault::enabled() &&
      util::fault::fire(util::fault::Site::kTheoryTimeout)) {
    throw util::fault::FaultInjected{};
  }
  const std::size_t base = spx_.mark();
  Result out;
  std::vector<int> used;
  bool conflict = false;
  for (std::size_t p = 0; p < pins.size() && !conflict; ++p) {
    const int ext = spx_.var(pins[p].var);
    const Rational v(pins[p].value);
    if (!spx_.assert_upper(ext, v, pin_tag(static_cast<int>(p))) ||
        !spx_.assert_lower(ext, v, pin_tag(static_cast<int>(p)))) {
      collect_farkas_tags(used);
      capture_farkas(out);
      conflict = true;
    }
  }
  if (!conflict) {
    if (spx_.check()) {
      if (int_vars != nullptr) {
        branch_budget_ = kBranchBudget;
        out.verdict = branch(*int_vars, 0, used, out);
      }
      if (out.verdict != Verdict::Infeasible) {
        spx_.retract_to(base);
        return out;
      }
    } else {
      collect_farkas_tags(used);
      capture_farkas(out);
    }
  }
  spx_.retract_to(base);

  // Infeasible: split the internal tags into the caller's rows and pins.
  out.verdict = Verdict::Infeasible;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  for (const int t : used) {
    if (tag_is_pin(t)) out.conflict_pins.push_back(-1 - t);
    else out.conflict_rows.push_back(t);
  }
  ++explanations_;
  return out;
}

}  // namespace advocat::smt
