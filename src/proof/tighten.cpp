// Worklist interval tightening; the rules are in tighten.hpp.
#include "proof/tighten.hpp"

namespace advocat::tighten {
namespace {

using util::BigInt;

constexpr std::size_t kVisitsPerRow = 64;

// A term c·v reads v's lower bound when c > 0 and its upper bound
// otherwise: the node of the bound a row reads (and a tightening writes
// the other one).
std::size_t reader_node(int v, std::int64_t c) {
  return 2 * static_cast<std::size_t>(v) + (c > 0 ? 0 : 1);
}

// Queues every premise row that reads bound `node`, in premise order.
void queue_readers(const Premises& p, std::size_t node, Worklist& wl) {
  for (std::size_t i = 0; i < p.own.size(); ++i) {
    for (const auto& [u, c] : p.own[i].terms) {
      if (reader_node(u, c) == node) {
        wl.push(i);
        break;
      }
    }
  }
  if (node < p.ctx.readers.size()) {
    for (const int r : p.ctx.readers[node]) {
      wl.push(p.own.size() + static_cast<std::size_t>(r));
    }
  }
}

// The bound row `r` implies on the variable of its term `ti` from the
// other terms' bounds (an upper bound for a positive coefficient, a lower
// one otherwise), rounded to the integers into `out`; false when another
// term's bound is missing. Exact: __int128 while every value fits in 64
// bits, BigInt beyond (the __int128 path saves a sixth of a certified
// sizing run; docs/BENCHMARKS.md has the ablation).
bool implied_bound(const Ineq& r, std::size_t ti, Bounds& st, BigInt& out) {
  const std::int64_t c = r.terms[ti].second;
  bool small = r.bound.fits_int64();
  __int128 rest = 0;
  for (std::size_t tj = 0; tj < r.terms.size(); ++tj) {
    if (tj == ti) continue;
    const auto [u, cu] = r.terms[tj];
    const VarBound& b = st.at(u, cu <= 0);
    if (!b.has) return false;
    small = small && b.val.fits_int64() &&
            !__builtin_add_overflow(
                rest, static_cast<__int128>(cu) * b.val.to_int64(), &rest);
  }
  __int128 avail = 0;  // c·v ≤ avail
  if (small && !__builtin_sub_overflow(static_cast<__int128>(
                                           r.bound.to_int64()),
                                       rest, &avail)) {
    // c > 0: v ≤ floor(avail/c). c < 0: with cc = -c, v ≥ -(avail/cc),
    // so lo = ceil(-avail/cc) = -floor(avail/cc).
    const __int128 cc = c > 0 ? c : -static_cast<__int128>(c);
    __int128 q = avail / cc;
    if (avail % cc != 0 && avail < 0) --q;
    if (c < 0) q = -q;
    if (q >= INT64_MIN && q <= INT64_MAX) {
      out = BigInt(static_cast<std::int64_t>(q));
      return true;
    }
  }
  BigInt big(0);
  for (std::size_t tj = 0; tj < r.terms.size(); ++tj) {
    if (tj == ti) continue;
    const auto [u, cu] = r.terms[tj];
    big += BigInt(cu) * st.at(u, cu <= 0).val;
  }
  const BigInt avail_big = r.bound - big;
  out = c > 0 ? floor_div(avail_big, BigInt(c))
              : -floor_div(avail_big, -BigInt(c));
  return true;
}

// One row visit: each term in order is bounded by the row and the other
// terms' bounds; a tightened bound queues the rows that read it. Returns
// the first crossed variable, or -1.
int visit(const Ineq& r, const Premises& p, Bounds& st, Worklist& wl) {
  BigInt nb;
  for (std::size_t ti = 0; ti < r.terms.size(); ++ti) {
    if (!implied_bound(r, ti, st, nb)) continue;
    const auto [v, c] = r.terms[ti];
    const bool is_hi = c > 0;
    const VarBound& cur = st.at(v, is_hi);
    if (!cur.has || (is_hi ? nb < cur.val : nb > cur.val)) {
      st.set(v, is_hi, std::move(nb));
      queue_readers(p, 2 * static_cast<std::size_t>(v) + (is_hi ? 1 : 0), wl);
    }
    const VarBound& lb = st.at(v, false);
    const VarBound& hb = st.at(v, true);
    if (lb.has && hb.has && lb.val > hb.val) return v;
  }
  return -1;
}

// Visits the queued rows first-in first-out until the queue drains (a
// fixpoint), a bound crosses, or 64 visits per premise row are spent.
// Returns the crossed variable, or -1; the queue is left empty.
int propagate(const Premises& p, Bounds& st, Worklist& wl) {
  const std::size_t budget = kVisitsPerRow * p.size();
  std::size_t visits = 0;
  int crossed = -1;
  while (crossed < 0 && wl.head < wl.queue.size() && visits < budget) {
    const auto r = static_cast<std::size_t>(wl.queue[wl.head++]);
    wl.queued[r] = 0;
    ++visits;
    crossed = visit(p.row(r), p, st, wl);
  }
  wl.clear();
  return crossed;
}

}  // namespace

BigInt floor_div(const BigInt& a, const BigInt& b) {
  BigInt q = a / b;
  if (!(a % b).is_zero() && a.is_negative()) q -= BigInt(1);
  return q;
}

void Context::extend(std::vector<Ineq> fresh) {
  const std::size_t first = rows.size();
  for (Ineq& r : fresh) {
    const int ri = static_cast<int>(rows.size());
    for (const auto& [v, c] : r.terms) {
      const std::size_t node = reader_node(v, c);
      if (readers.size() <= node) readers.resize(node + 1);
      std::vector<int>& rs = readers[node];
      if (rs.empty() || rs.back() != ri) rs.push_back(ri);
    }
    rows.push_back(std::move(r));
  }
  work.queued.resize(rows.size(), 0);
  if (crossed >= 0) return;
  const std::vector<Ineq> none;
  const Premises p{none, *this};
  for (std::size_t i = first; i < rows.size(); ++i) work.push(i);
  crossed = propagate(p, base, work);
  base.trail.clear();  // the base bounds are permanent
}

int tighten_branch(const Premises& p, Bounds& st, int seed) {
  if (p.ctx.crossed >= 0) return p.ctx.crossed;
  Worklist& wl = p.ctx.work;
  wl.queued.resize(p.size(), 0);
  if (seed < 0) {
    for (std::size_t i = 0; i < p.own.size(); ++i) wl.push(i);
  } else {
    queue_readers(p, static_cast<std::size_t>(seed), wl);
  }
  return propagate(p, st, wl);
}

}  // namespace advocat::tighten
