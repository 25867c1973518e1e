#include "smt/simplex_theory.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "util/fault.hpp"

namespace advocat::smt {

using linalg::Rational;
using util::BigInt;

namespace {

// Internal tag space: rows keep their index (>= 0), and branch-on-vertex
// cut bounds use a reserved tag that is filtered out of every explanation
// (over the integers the two branch bounds form a tautology, so a
// refutation of both branches refutes the node without them).
constexpr int kBranchTag = std::numeric_limits<int>::min();

// Branch-and-bound limits per integer-complete check: the node budget
// (each node costs one simplex re-check) and the search depth. Either
// exhausted keeps the honest `Feasible` (integer-open) verdict, which the
// solver degrades to Unknown. Sized from measurement: the parity system
// x = 2y ∧ x = 2z+1 with 0 ≤ x ≤ 2000 and small random bounded systems
// (docs/SOLVER.md, degradation ladder) decide within them.
constexpr std::uint64_t kBranchBudget = 50'000;
constexpr int kBranchDepth = 4096;

// floor of an exact rational as a BigInt (BigInt division truncates toward
// zero, so negative non-integral quotients need the -1 adjustment).
BigInt floor_big(const Rational& v) {
  BigInt q = v.num() / v.den();
  if (v.is_negative() && !(v.num() % v.den()).is_zero()) q -= BigInt(1);
  return q;
}

// Hash of a row's canonical form (leading coefficient made positive),
// computed from its terms.
std::uint64_t form_hash(const theory::Row& row) {
  const bool negated = row.terms.front().second < 0;
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const auto& [v, c] : row.terms) {
    h = (h ^ static_cast<std::uint32_t>(v)) * 0x100000001b3ull;
    h = (h ^ static_cast<std::uint64_t>(negated ? -c : c)) * 0x100000001b3ull;
  }
  return h ^ (h >> 29);
}

}  // namespace

SimplexTheory::SlackRef SimplexTheory::slack_for(const theory::Row& row) {
  // Hot path: rows are stable immutable atom members, so re-activation
  // across checks resolves by pointer.
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
  const std::uint64_t h = form_hash(row);
  if (const int v = find_slack(h, row); v >= 0) return {v, negated};
  std::vector<std::pair<std::int32_t, std::int64_t>> terms;
  terms.reserve(row.terms.size());
  for (const auto& [v, c] : row.terms) {
    terms.emplace_back(static_cast<std::int32_t>(v), negated ? -c : c);
  }
  const int var = spx_.add_slack(terms);
  slack_index_.emplace(h, Form{&row, var});
  return {var, negated};
}

int SimplexTheory::find_slack(std::uint64_t h, const theory::Row& row) const {
  // Two rows have the same canonical form when their terms agree up to
  // each row's own sign.
  const bool negated = row.terms.front().second < 0;
  auto [it, end] = slack_index_.equal_range(h);
  for (; it != end; ++it) {
    const theory::Row& form = *it->second.row;
    const bool flip = negated != (form.terms.front().second < 0);
    if (std::ranges::equal(form.terms, row.terms,
                           [flip](const auto& a, const auto& b) {
                             return a.first == b.first &&
                                    a.second == (flip ? -b.second : b.second);
                           })) {
      return it->second.var;
    }
  }
  return -1;
}

bool SimplexTheory::assert_row(const theory::Row& row, int tag) {
  crossing_.clear();
  const SlackRef s = slack_for(row);
  // Σ terms ≤ b  ⇔  canonical ≤ b   (positive sign)
  //            ⇔  canonical ≥ −b   (negated sign)
  const bool ok = s.negated
                      ? spx_.assert_lower(s.var, Rational(-row.bound), tag)
                      : spx_.assert_upper(s.var, Rational(row.bound), tag);
  if (!ok) {
    collect_farkas_tags(crossing_);
    ++explanations_;
  }
  return ok;
}

void SimplexTheory::collect_farkas_tags(std::vector<int>& used) const {
  for (const linalg::FarkasTerm& t : spx_.farkas()) {
    if (t.tag != kBranchTag) used.push_back(t.tag);
  }
}

// Depth-first over an explicit stack (a deep search would overflow the
// call stack): each frame is one node's cut x ≤ ⌊v⌋ ∨ x ≥ ⌊v⌋+1, probed
// lower side first. A refuted probe is answered at once; a feasible one
// descends, and the child's verdict flows back up once the child closes.
SimplexTheory::Verdict SimplexTheory::branch(const std::vector<int>& int_vars,
                                             std::vector<int>& used,
                                             Result& out) {
  struct Frame {
    int ext;
    Rational floor;
    std::size_t mark;
    bool upper = false;                  // probing x ≥ ⌊v⌋+1
    Verdict lower = Verdict::Feasible;   // the x ≤ ⌊v⌋ verdict
  };
  std::vector<Frame> stack;
  // Asserts the frame's current side; false (with the refutation's tags
  // collected and the cut retracted) when it is infeasible.
  auto probe = [&](const Frame& fr) {
    const bool ok = fr.upper
                        ? spx_.assert_lower(fr.ext, fr.floor + Rational(1),
                                            kBranchTag)
                        : spx_.assert_upper(fr.ext, fr.floor, kBranchTag);
    if (ok && spx_.check()) return true;
    collect_farkas_tags(used);
    spx_.retract_to(fr.mark);
    return false;
  };
  for (;;) {
    // Precondition: bounds feasible over the rationals (spx_.check() held).
    Verdict v = Verdict::Feasible;
    int frac = -1;
    for (const int iv : int_vars) {
      if (!spx_.value(spx_.var(iv)).is_integer()) {
        frac = iv;
        break;
      }
    }
    if (frac < 0) {
      v = Verdict::IntegerModel;
      out.model.clear();
      for (const int iv : int_vars) {
        const Rational& val = spx_.value(spx_.var(iv));
        if (!val.num().fits_int64()) {
          v = Verdict::Feasible;  // honest open
          break;
        }
        out.model.push_back(theory::Pin{iv, val.num().to_int64()});
      }
    } else if (branch_budget_ > 0 &&
               static_cast<int>(stack.size()) <= kBranchDepth) {
      --branch_budget_;
      const int ext = spx_.var(frac);
      stack.push_back(
          Frame{ext, Rational(floor_big(spx_.value(ext))), spx_.mark()});
      if (probe(stack.back())) continue;  // descend into x ≤ ⌊v⌋
      v = Verdict::Infeasible;
    }
    // Hand `v` up: to the open probe of the innermost frame, until a
    // frame opens its upper side or the root answers.
    bool descend = false;
    while (!stack.empty() && !descend) {
      Frame& fr = stack.back();
      spx_.retract_to(fr.mark);
      if (!fr.upper && v != Verdict::IntegerModel) {
        fr.lower = v;
        fr.upper = true;
        if (probe(fr)) {
          descend = true;  // into x ≥ ⌊v⌋+1
          continue;
        }
        v = Verdict::Infeasible;
      }
      if (fr.upper && v != Verdict::IntegerModel) {
        // x ≤ ⌊v⌋ ∨ x ≥ ⌊v⌋+1 is an integer tautology.
        v = fr.lower == Verdict::Infeasible && v == Verdict::Infeasible
                ? Verdict::Infeasible
                : Verdict::Feasible;
      }
      stack.pop_back();
    }
    if (!descend) return v;
  }
}

std::string SimplexTheory::audit() const {
  // Canonical-form uniqueness: every canonical form owns exactly one
  // slack (no two index entries share a form or a slack), each entry sits
  // under its form's hash, and slack ids are valid tableau variables.
  std::unordered_set<int> owned;
  for (const auto& [h, form] : slack_index_) {
    const auto bad = [&form](const char* why) {
      return "slack var " + std::to_string(form.var) + why;
    };
    if (form.var < 0 || static_cast<std::size_t>(form.var) >= spx_.num_vars()) {
      return bad(": out of range");
    }
    if (form_hash(*form.row) != h) return bad(": filed under a stale hash");
    if (find_slack(h, *form.row) != form.var) {
      return bad(": its canonical form owns another slack");
    }
    if (!owned.insert(form.var).second) {
      return bad(": owned by two canonical forms");
    }
  }
  // The by-pointer row cache must agree with the canonical index.
  for (const auto& [row, ref] : row_slack_) {
    const int var = find_slack(form_hash(*row), *row);
    if (var != ref.var || ref.negated != (row->terms.front().second < 0)) {
      return "row_slack_ entry for slack var " + std::to_string(ref.var) +
             (var < 0 ? ": no canonical form"
                      : ": disagrees with the canonical index");
    }
  }
  return spx_.audit();
}

SimplexTheory::Result SimplexTheory::check() { return decide(nullptr); }

SimplexTheory::Result SimplexTheory::check_integer(
    const std::vector<int>& int_vars) {
  return decide(&int_vars);
}

SimplexTheory::Result SimplexTheory::decide(const std::vector<int>* int_vars) {
  // Injected theory timeout. Thrown before any cut is asserted, so it
  // unwinds exactly like a deadline tick fired on the first pivot — the
  // host's established recovery path.
  if (util::fault::enabled() &&
      util::fault::fire(util::fault::Site::kTheoryTimeout)) {
    throw util::fault::FaultInjected{};
  }
  Result out;
  std::vector<int> used;
  if (spx_.check()) {
    if (int_vars == nullptr) return out;
    branch_budget_ = kBranchBudget;
    out.verdict = branch(*int_vars, used, out);
    if (out.verdict != Verdict::Infeasible) return out;
  } else {
    collect_farkas_tags(used);
    if (hints_) {
      // One combination, no cut: its tags are distinct, so the multipliers
      // in tag order line up with the sorted tags below.
      std::vector<linalg::FarkasTerm> terms = spx_.farkas();
      std::sort(terms.begin(), terms.end(),
                [](const auto& a, const auto& b) { return a.tag < b.tag; });
      for (linalg::FarkasTerm& t : terms) {
        out.multipliers.push_back(std::move(t.mult));
      }
    }
  }

  // Infeasible: the refutation's row tags, each once.
  out.verdict = Verdict::Infeasible;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  out.conflict_rows = std::move(used);
  ++explanations_;
  return out;
}

}  // namespace advocat::smt
