// Worklist interval tightening; the rules are in tighten.hpp.
#include "proof/tighten.hpp"

#include <algorithm>

namespace advocat::tighten {
namespace {

using util::BigInt;

constexpr std::size_t kVisitsPerRow = 64;

// FIFO of premise rows awaiting a visit; a row is queued at most once.
// `readers` holds a (bound node, row) pair per premise term, sorted: the
// rows that read a bound, in premise order.
struct Worklist {
  std::vector<int> queue;
  std::size_t head = 0;
  std::vector<char> queued;
  std::vector<std::pair<std::size_t, std::size_t>> readers;

  void push(std::size_t r) {
    if (queued[r] != 0) return;
    queued[r] = 1;
    queue.push_back(static_cast<int>(r));
  }
};

// A term c·v reads v's lower bound when c > 0 and its upper bound
// otherwise: the node of the bound a row reads (and a tightening writes
// the other one).
std::size_t reader_node(int v, std::int64_t c) {
  return 2 * static_cast<std::size_t>(v) + (c > 0 ? 0 : 1);
}

// Queues every premise row that reads bound `node`, in premise order.
void queue_readers(std::size_t node, Worklist& wl) {
  auto it = std::lower_bound(wl.readers.begin(), wl.readers.end(),
                             std::pair<std::size_t, std::size_t>{node, 0});
  for (; it != wl.readers.end() && it->first == node; ++it) wl.push(it->second);
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
int visit(const Ineq& r, Bounds& st, Worklist& wl) {
  BigInt nb;
  for (std::size_t ti = 0; ti < r.terms.size(); ++ti) {
    if (!implied_bound(r, ti, st, nb)) continue;
    const auto [v, c] = r.terms[ti];
    const bool is_hi = c > 0;
    const VarBound& cur = st.at(v, is_hi);
    if (!cur.has || (is_hi ? nb < cur.val : nb > cur.val)) {
      st.set(v, is_hi, std::move(nb));
      queue_readers(2 * static_cast<std::size_t>(v) + (is_hi ? 1 : 0), wl);
    }
    const VarBound& lb = st.at(v, false);
    const VarBound& hb = st.at(v, true);
    if (lb.has && hb.has && lb.val > hb.val) return v;
  }
  return -1;
}

// Visits the queued rows first-in first-out until the queue drains (a
// fixpoint), a bound crosses, or 64 visits per premise row are spent.
// Returns the crossed variable, or -1.
int propagate(const Premises& p, Bounds& st, Worklist& wl) {
  const std::size_t budget = kVisitsPerRow * p.size();
  std::size_t visits = 0;
  int crossed = -1;
  while (crossed < 0 && wl.head < wl.queue.size() && visits < budget) {
    const auto r = static_cast<std::size_t>(wl.queue[wl.head++]);
    wl.queued[r] = 0;
    ++visits;
    crossed = visit(p[r], st, wl);
  }
  return crossed;
}

}  // namespace

BigInt floor_div(const BigInt& a, const BigInt& b) {
  BigInt q = a / b;
  if (!(a % b).is_zero() && a.is_negative()) q -= BigInt(1);
  return q;
}

int tighten_branch(const Premises& p, Bounds& st, int seed) {
  Worklist wl;
  wl.queued.assign(p.size(), 0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (const auto& [u, c] : p[i].terms) {
      wl.readers.emplace_back(reader_node(u, c), i);
    }
  }
  std::sort(wl.readers.begin(), wl.readers.end());
  if (seed < 0) {
    for (std::size_t i = 0; i < p.size(); ++i) wl.push(i);
  } else {
    queue_readers(static_cast<std::size_t>(seed), wl);
  }
  return propagate(p, st, wl);
}

}  // namespace advocat::tighten
