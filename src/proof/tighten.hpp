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
//  - Context::extend appends context rows and re-tightens the base bounds
//    from their previous state, seeded by the new rows;
//  - a lemma starts from the base bounds, seeded by its own rows; a split
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

/// FIFO of premise rows awaiting a visit; a row is queued at most once.
struct Worklist {
  std::vector<int> queue;
  std::size_t head = 0;
  std::vector<char> queued;

  void push(std::size_t r) {
    if (queued[r] != 0) return;
    queued[r] = 1;
    queue.push_back(static_cast<int>(r));
  }
  void clear() {
    for (std::size_t i = head; i < queue.size(); ++i) {
      queued[static_cast<std::size_t>(queue[i])] = 0;
    }
    queue.clear();
    head = 0;
  }
};

/// floor(a/b) for b > 0 (BigInt division truncates toward zero).
[[nodiscard]] util::BigInt floor_div(const util::BigInt& a,
                                     const util::BigInt& b);

/// The level-0 context: its rows (premises p<n>… of a lemma with n own
/// rows), the context rows that read each bound, and the base bounds the
/// context alone implies. `base` must cover every column a row names
/// (Bounds::grow).
struct Context {
  std::vector<Ineq> rows;
  std::vector<std::vector<int>> readers;  // bound node -> context rows
  Bounds base;
  int crossed = -1;  // the context alone crosses this variable's bounds
  Worklist work;

  /// Appends `fresh` and re-tightens the base bounds from their previous
  /// state, seeded by the new rows in order. The base bounds stay
  /// permanent; once `crossed` is set they no longer change.
  void extend(std::vector<Ineq> fresh);
};

/// The premises of one lemma: its own rows p0…p{n-1} (the negated clause
/// literals), then the context rows.
struct Premises {
  const std::vector<Ineq>& own;
  Context& ctx;  // its worklist serves the lemma's branches

  [[nodiscard]] std::size_t size() const {
    return own.size() + ctx.rows.size();
  }
  [[nodiscard]] const Ineq& row(std::size_t i) const {
    return i < own.size() ? own[i] : ctx.rows[i - own.size()];
  }
};

/// Tightens one proof branch in place: seeded by the lemma's own rows when
/// `seed` < 0, otherwise by the rows that read bound node `seed` (2v for
/// v's lower bound, 2v+1 for its upper bound, the bound a split cut set).
/// Returns the crossed variable, or -1. When the context alone crosses,
/// returns that variable without tightening.
int tighten_branch(const Premises& p, Bounds& st, int seed);

}  // namespace advocat::tighten
