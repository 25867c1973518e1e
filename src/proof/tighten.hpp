// Worklist interval tightening over exact integer rows, shared by the
// certificate builder (src/smt/proof.cpp) and the standalone checker
// (tools/proof_check.cpp). A proof step names derived bounds as `lo<v>` /
// `hi<v>` without serializing their derivation: the checker derives them
// itself with this code. The certifier only predicts what the checker will
// derive, so the checker's acceptance never rests on the certifier's copy.
// Depends only on util::BigInt: the checker links no solver code.
//
// The rules (docs/PROOFS.md, "Interval tightening"):
//
//  - a lemma starts from empty bounds, seeded by its own rows; a split
//    branch starts from its parent's bounds plus the cut, seeded by the
//    rows that read the cut bound;
//  - rows are visited first-in first-out, each queued at most once; a
//    tightened bound queues every premise row that reads it, in premise
//    order; propagation stops at the first crossing or after 64 visits per
//    premise row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bigint.hpp"

namespace advocat::tighten {

/// One ≤-inequality over the integer columns: Σ c·x ≤ bound.
struct Ineq {
  std::vector<std::pair<int, std::int64_t>> terms;
  util::BigInt bound;
};

struct VarBound {
  bool has = false;
  util::BigInt val;
};

/// Derived bounds with an undo trail: a lemma and each split branch tighten
/// in place and roll back to where they started.
struct Bounds {
  struct Undo {
    int var;
    bool is_hi;
    VarBound old;
  };
  std::vector<VarBound> lo, hi;
  std::vector<Undo> trail;

  void grow(std::size_t n) {
    if (lo.size() < n) {
      lo.resize(n);
      hi.resize(n);
    }
  }
  VarBound& at(int v, bool is_hi) {
    return (is_hi ? hi : lo)[static_cast<std::size_t>(v)];
  }
  void set(int v, bool is_hi, util::BigInt val) {
    VarBound& b = at(v, is_hi);
    trail.push_back(Undo{v, is_hi, b});
    b.has = true;
    b.val = std::move(val);
  }
  void undo_to(std::size_t mark) {
    while (trail.size() > mark) {
      Undo& u = trail.back();
      at(u.var, u.is_hi) = std::move(u.old);
      trail.pop_back();
    }
  }
};

/// floor(a/b) for b > 0 (BigInt division truncates toward zero).
[[nodiscard]] util::BigInt floor_div(const util::BigInt& a,
                                     const util::BigInt& b);

/// The premises of one lemma, p0…p{n-1}: its negated clause literals.
using Premises = std::vector<Ineq>;

/// Tightens one proof branch in place: seeded by the lemma's own rows when
/// `seed` < 0, otherwise by the rows that read bound node `seed` (2v for
/// v's lower bound, 2v+1 for its upper bound, the bound a split cut set).
/// Returns the crossed variable, or -1.
int tighten_branch(const Premises& p, Bounds& st, int seed);

}  // namespace advocat::tighten
