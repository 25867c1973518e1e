#include "smt/audit.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "smt/search_context.hpp"
#include "util/env.hpp"

namespace advocat::smt::native {

bool audit_enabled() {
  static const bool on = util::env_audit();
  return on;
}

void audit_fail(const char* site, const char* invariant,
                const std::string& detail) {
  std::fprintf(stderr,
               "advocat: AUDIT FAILURE at %s: invariant '%s' violated: %s\n",
               site, invariant, detail.c_str());
  std::abort();
}

namespace {

std::string lit_str(Lit l) {
  return (is_neg(l) ? "~v" : "v") + std::to_string(var_of(l));
}

}  // namespace

void Auditor::check_search(const SearchContext& ctx, const char* site) {
  if (!audit_enabled()) return;
  const auto fail = [site](const char* invariant, const std::string& detail) {
    audit_fail(site, invariant, detail);
  };
  const std::size_t nv = ctx.assign_.size();
  const std::size_t nt = ctx.trail_.size();

  // Propagation heads never outrun the trail.
  if (ctx.qhead_ > nt || ctx.theory_head_ > nt) {
    fail("propagation-heads",
         "qhead " + std::to_string(ctx.qhead_) + ", theory_head " +
             std::to_string(ctx.theory_head_) + ", trail size " +
             std::to_string(nt));
  }

  // Level marks are monotone and point inside their containers.
  std::size_t prev_trail = 0;
  for (std::size_t i = 0; i < ctx.levels_.size(); ++i) {
    const SearchContext::LevelMark& m = ctx.levels_[i];
    if (m.trail < prev_trail || m.trail > nt || m.rows > ctx.active_rows_.size() ||
        m.blog > ctx.blog_.size()) {
      fail("level-marks", "level " + std::to_string(i + 1) +
                              ": mark out of range or non-monotone");
    }
    prev_trail = m.trail;
  }

  // Assumption-prefix bookkeeping: placed literals and prefix levels move
  // in lockstep (each placed prefix literal owns exactly one level) and
  // never exceed the queue or the current level stack.
  if (ctx.prefix_placed_ != ctx.prefix_levels_ || ctx.prefix_placed_ < 0 ||
      ctx.prefix_placed_ > static_cast<int>(ctx.assume_q_.size()) ||
      ctx.prefix_levels_ > static_cast<int>(ctx.levels_.size())) {
    fail("assumption-prefix",
         "placed " + std::to_string(ctx.prefix_placed_) + ", levels " +
             std::to_string(ctx.prefix_levels_) + ", queue " +
             std::to_string(ctx.assume_q_.size()) + ", level stack " +
             std::to_string(ctx.levels_.size()));
  }

  // Trail well-formedness: every entry assigned with the matching
  // polarity, no variable twice, and the recorded decision level equal to
  // the number of level marks at or before the entry's position.
  std::vector<char> on_trail(nv, 0);
  std::size_t li = 0;
  for (std::size_t p = 0; p < nt; ++p) {
    const Lit l = ctx.trail_[p];
    const auto v = static_cast<std::size_t>(var_of(l));
    if (v >= nv) fail("trail-var-range", lit_str(l) + " at position " +
                                             std::to_string(p));
    if (on_trail[v]) {
      fail("trail-duplicate", lit_str(l) + " at position " + std::to_string(p));
    }
    on_trail[v] = 1;
    if (ctx.assign_[v] != (is_neg(l) ? kFalse : kTrue)) {
      fail("trail-assignment", lit_str(l) + " at position " +
                                   std::to_string(p) + " not assigned true");
    }
    while (li < ctx.levels_.size() && ctx.levels_[li].trail <= p) ++li;
    if (ctx.level_[v] != static_cast<int>(li)) {
      fail("trail-level", lit_str(l) + ": recorded level " +
                              std::to_string(ctx.level_[v]) +
                              ", trail position implies " + std::to_string(li));
    }
  }
  std::size_t assigned = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    if (ctx.assign_[v] != kUndef) ++assigned;
  }
  if (assigned != nt) {
    fail("assigned-count", std::to_string(assigned) + " assigned vars vs " +
                               std::to_string(nt) + " trail entries");
  }

  // EVSIDS heap: every unassigned variable present, positions inverse to
  // the heap array, and the max-heap property on activities.
  if (ctx.heap_pos_.size() != nv) {
    fail("heap-size", "heap_pos size " + std::to_string(ctx.heap_pos_.size()) +
                          " vs " + std::to_string(nv) + " vars");
  }
  for (std::size_t i = 0; i < ctx.heap_.size(); ++i) {
    const int v = ctx.heap_[i];
    if (v < 0 || static_cast<std::size_t>(v) >= nv ||
        ctx.heap_pos_[static_cast<std::size_t>(v)] != static_cast<int>(i)) {
      fail("heap-inverse", "heap[" + std::to_string(i) + "] = v" +
                               std::to_string(v) + " with heap_pos " +
                               std::to_string(
                                   v >= 0 && static_cast<std::size_t>(v) < nv
                                       ? ctx.heap_pos_[static_cast<std::size_t>(
                                             v)]
                                       : -1));
    }
    if (i > 0) {
      const auto parent = static_cast<std::size_t>(ctx.heap_[(i - 1) / 2]);
      if (ctx.activity_[parent] <
          ctx.activity_[static_cast<std::size_t>(v)]) {
        fail("heap-property", "heap[" + std::to_string(i) + "] = v" +
                                  std::to_string(v) +
                                  " more active than its parent");
      }
    }
  }
  for (std::size_t v = 0; v < nv; ++v) {
    const int hp = ctx.heap_pos_[v];
    if (hp >= 0 && (static_cast<std::size_t>(hp) >= ctx.heap_.size() ||
                    ctx.heap_[static_cast<std::size_t>(hp)] !=
                        static_cast<int>(v))) {
      std::string detail = "v";  // appended: GCC 12 -O3 -Wrestrict
      detail += std::to_string(v) + ": heap_pos " + std::to_string(hp) +
                " does not point back";
      fail("heap-inverse", detail);
    }
    if (ctx.assign_[v] == kUndef && hp < 0) {
      fail("heap-membership",
           "unassigned v" + std::to_string(v) + " missing from the heap");
    }
  }
}

void Auditor::check_deep(const SearchContext& ctx, const char* site,
                         bool bounds_settled) {
  if (!audit_enabled()) return;
  check_search(ctx, site);
  const auto fail = [site](const char* invariant, const std::string& detail) {
    audit_fail(site, invariant, detail);
  };
  const int nb = ctx.sh_.num_bvars;

  // Clause arena: header discipline, waste accounting, and the
  // learned/tainted counters. Tombstones keep their size field and
  // literals (sequential walks and stale watch entries depend on it).
  const ClauseArena& ar = ctx.arena_;
  std::vector<std::uint8_t> is_header(ar.words(), 0);
  std::size_t live_learned = 0;
  std::size_t live_tainted = 0;
  std::size_t tombstones = 0;
  std::size_t tombstone_words = 0;
  for (ClauseRef ci = ar.first(); ci != kClauseRefUndef; ci = ar.next(ci)) {
    is_header[static_cast<std::size_t>(ci)] = 1;
    const std::uint32_t n = ar.size(ci);
    const Lit* lits = ar.lits(ci);
    if (n < 2) {
      fail("arena-clause-size", "clause " + std::to_string(ci) + " has " +
                                    std::to_string(n) +
                                    " literals (units live elsewhere)");
    }
    for (std::uint32_t k = 0; k < n; ++k) {
      if (var_of(lits[k]) < 0 || var_of(lits[k]) >= nb) {
        fail("arena-var-range",
             "clause " + std::to_string(ci) + " mentions " + lit_str(lits[k]));
      }
    }
    if (ar.deleted(ci)) {
      ++tombstones;
      tombstone_words += ClauseArena::kHeaderWords + n;
      continue;
    }
    if (ar.learned(ci)) {
      ++live_learned;
      for (std::uint32_t a = 0; a < n; ++a) {
        for (std::uint32_t b = a + 1; b < n; ++b) {
          if (var_of(lits[a]) == var_of(lits[b])) {
            fail("arena-duplicate-var", "learned clause " + std::to_string(ci) +
                                            " mentions v" +
                                            std::to_string(var_of(lits[a])) +
                                            " twice");
          }
        }
      }
    }
    if (ar.tainted(ci)) {
      ++live_tainted;
      if (!ar.learned(ci)) {
        fail("arena-tainted-problem",
             "clause " + std::to_string(ci) + " tainted but not learned");
      }
    }
  }
  if (tombstone_words != ar.wasted_words()) {
    fail("arena-waste-accounting",
         std::to_string(tombstone_words) + " tombstone words vs wasted() " +
             std::to_string(ar.wasted_words()));
  }
  if (live_learned != ctx.num_learned_live_) {
    fail("arena-learned-count", std::to_string(live_learned) +
                                    " live learned clauses vs counter " +
                                    std::to_string(ctx.num_learned_live_));
  }
  // reduce_db() does not retire the tainted counter with the clause, so
  // the counter over-approximates; compaction requires it never to drop
  // below the live population (a zero counter with live tainted clauses
  // would let an unentailed clause survive the next check boundary).
  if (live_tainted > ctx.num_tainted_) {
    fail("arena-tainted-count", std::to_string(live_tainted) +
                                    " live tainted clauses vs counter " +
                                    std::to_string(ctx.num_tainted_));
  }
  if (tombstones > 0 && !ctx.arena_has_tombstones_) {
    fail("arena-tombstone-flag",
         std::to_string(tombstones) +
             " tombstones with arena_has_tombstones_ unset");
  }
  for (const Lit l : ctx.learned_units_) {
    if (var_of(l) < 0 || var_of(l) >= nb) {
      fail("learned-unit-range", lit_str(l));
    }
  }

  // Two-watched literals, exactly once: a live clause is watched under
  // lits[0] and lits[1] and nowhere else (tombstoned entries linger in
  // the lists by design and are skipped). Each watcher's blocker must be
  // a literal of its clause — the blocker fast path is only sound then.
  std::vector<std::uint8_t> w0(ar.words(), 0);
  std::vector<std::uint8_t> w1(ar.words(), 0);
  for (std::size_t l = 0; l < ctx.watches_.size(); ++l) {
    for (const Watcher& w : ctx.watches_[l]) {
      if (w.ref < 0 || static_cast<std::size_t>(w.ref) >= ar.words() ||
          !is_header[static_cast<std::size_t>(w.ref)]) {
        fail("watch-clause-range", "watch list of " +
                                       lit_str(static_cast<Lit>(l)) +
                                       " holds ref " + std::to_string(w.ref));
      }
      if (ar.deleted(w.ref)) continue;  // lazily-dropped tombstone entry
      const Lit* lits = ar.lits(w.ref);
      const std::uint32_t n = ar.size(w.ref);
      bool blocker_in_clause = false;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (lits[k] == w.blocker) {
          blocker_in_clause = true;
          break;
        }
      }
      if (!blocker_in_clause) {
        fail("watch-blocker", "clause " + std::to_string(w.ref) +
                                  " watched with blocker " +
                                  lit_str(w.blocker) +
                                  " which is not one of its literals");
      }
      const auto lit = static_cast<Lit>(l);
      if (lit == lits[0]) {
        ++w0[static_cast<std::size_t>(w.ref)];
      } else if (lit == lits[1]) {
        ++w1[static_cast<std::size_t>(w.ref)];
      } else {
        fail("watch-wrong-literal", "clause " + std::to_string(w.ref) +
                                        " watched under " + lit_str(lit) +
                                        " which is not lits[0] or lits[1]");
      }
    }
  }
  for (ClauseRef ci = ar.first(); ci != kClauseRefUndef; ci = ar.next(ci)) {
    if (ar.deleted(ci)) continue;
    const Lit* lits = ar.lits(ci);
    const bool same = lits[0] == lits[1];
    const auto cs = static_cast<std::size_t>(ci);
    const bool ok = same ? (w0[cs] == 2 && w1[cs] == 0)
                         : (w0[cs] == 1 && w1[cs] == 1);
    if (!ok) {
      fail("watch-exactly-once",
           "clause " + std::to_string(ci) + " watched " +
               std::to_string(w0[cs]) + "x under lits[0], " +
               std::to_string(w1[cs]) + "x under lits[1]");
    }
  }

  // Reason validity: an implied trail literal's reason clause asserts it
  // in slot 0 and every other literal is false at or below its level.
  for (const Lit l : ctx.trail_) {
    const auto v = static_cast<std::size_t>(var_of(l));
    const int r = ctx.reason_[v];
    if (r < 0) continue;  // decision, assumption, or theory propagation
    if (static_cast<std::size_t>(r) >= ar.words() ||
        !is_header[static_cast<std::size_t>(r)] || ar.deleted(r)) {
      fail("reason-clause", lit_str(l) + ": reason " + std::to_string(r) +
                                " out of range or tombstoned");
    }
    const Lit* lits = ar.lits(r);
    const std::uint32_t n = ar.size(r);
    if (lits[0] != l) {
      fail("reason-asserts", lit_str(l) + ": reason clause " +
                                 std::to_string(r) + " has " +
                                 lit_str(lits[0]) + " in slot 0");
    }
    for (std::uint32_t k = 1; k < n; ++k) {
      const Lit o = lits[k];
      const auto ov = static_cast<std::size_t>(var_of(o));
      if (ctx.assign_[ov] != (is_neg(o) ? kTrue : kFalse) ||
          ctx.level_[ov] > ctx.level_[v]) {
        fail("reason-antecedent",
             lit_str(l) + ": reason clause " + std::to_string(r) +
                 " literal " + lit_str(o) + " not false at or below level " +
                 std::to_string(ctx.level_[v]));
      }
    }
  }

  // Active theory rows and their occurrence lists agree.
  if (ctx.active_row_lit_.size() != ctx.active_rows_.size()) {
    fail("row-lit-size", std::to_string(ctx.active_row_lit_.size()) +
                             " activation literals vs " +
                             std::to_string(ctx.active_rows_.size()) +
                             " active rows");
  }
  // The simplex bounds follow the active rows: one trail mark per row,
  // monotone, none past the simplex's own trail.
  if (ctx.row_stx_mark_.size() != ctx.active_rows_.size()) {
    fail("row-simplex-marks", std::to_string(ctx.row_stx_mark_.size()) +
                                  " simplex marks vs " +
                                  std::to_string(ctx.active_rows_.size()) +
                                  " active rows");
  }
  for (std::size_t ri = 0; ri < ctx.row_stx_mark_.size(); ++ri) {
    if ((ri > 0 && ctx.row_stx_mark_[ri] < ctx.row_stx_mark_[ri - 1]) ||
        ctx.row_stx_mark_[ri] > ctx.stx_.mark()) {
      fail("row-simplex-marks", "row " + std::to_string(ri) +
                                    ": mark non-monotone or past the "
                                    "simplex trail");
    }
  }
  for (std::size_t v = 0; v < ctx.row_occ_.size(); ++v) {
    for (const int ri : ctx.row_occ_[v]) {
      if (ri < 0 || static_cast<std::size_t>(ri) >= ctx.active_rows_.size()) {
        fail("row-occ-range", "int var " + std::to_string(v) +
                                  " occurs in row " + std::to_string(ri));
      }
      bool mentions = false;
      for (const auto& [tv, tc] : ctx.active_rows_[static_cast<std::size_t>(
               ri)]->terms) {
        (void)tc;
        if (tv == static_cast<int>(v)) {
          mentions = true;
          break;
        }
      }
      if (!mentions) {
        fail("row-occ-mentions", "int var " + std::to_string(v) +
                                     " listed for row " + std::to_string(ri) +
                                     " which does not mention it");
      }
    }
  }

  // Interval bounds: only meaningful at settled sites — a stop can
  // unwind between an interval crossing and its explanation, leaving the
  // crossed interval until the next reset.
  if (bounds_settled) {
    for (std::size_t v = 0; v < ctx.lo_.size(); ++v) {
      if (ctx.lo_[v] > ctx.hi_[v]) {
        fail("interval-crossed", "int var " + std::to_string(v) + ": lo " +
                                     std::to_string(ctx.lo_[v]) + " > hi " +
                                     std::to_string(ctx.hi_[v]));
      }
    }
    // The bound log is the bounds' undo log: each bound is the value its
    // node's latest entry set, or ∓∞ when the node has none, and a node's
    // chain runs back in time.
    if (ctx.bhead_.size() != 2 * ctx.lo_.size()) {
      fail("bound-log-chain", std::to_string(ctx.bhead_.size()) +
                                  " bound nodes vs " +
                                  std::to_string(ctx.lo_.size()) +
                                  " int vars");
    }
    for (std::size_t node = 0; node < ctx.bhead_.size(); ++node) {
      const bool is_hi = (node & 1) != 0;
      const std::int64_t bound = (is_hi ? ctx.hi_ : ctx.lo_)[node >> 1];
      const int head = ctx.bhead_[node];
      const auto bad = [&](const std::string& why) {
        fail("bound-log-chain", "int var " + std::to_string(node >> 1) +
                                    (is_hi ? " hi " : " lo ") +
                                    std::to_string(bound) + ": " + why);
      };
      if (head >= static_cast<int>(ctx.blog_.size())) {
        bad("head entry " + std::to_string(head) + " past the log");
      }
      const std::int64_t implied =
          head >= 0 ? ctx.blog_[static_cast<std::size_t>(head)].val
          : is_hi   ? std::numeric_limits<std::int64_t>::max()
                    : std::numeric_limits<std::int64_t>::min();
      if (bound != implied) {
        bad("the log implies " + std::to_string(implied));
      }
      for (int e = head; e >= 0;
           e = ctx.blog_[static_cast<std::size_t>(e)].prev) {
        const SearchContext::BoundLog& le =
            ctx.blog_[static_cast<std::size_t>(e)];
        if (le.node != static_cast<int>(node) || le.prev >= e) {
          bad("entry " + std::to_string(e) + " is misfiled in the chain");
        }
      }
    }
    // Conflict analysis is a cancellation point too (explaining an
    // entailed literal polls bump_ops); its scratch must not outlive it.
    for (std::size_t v = 0; v < ctx.seen_.size(); ++v) {
      if (ctx.seen_[v] != 0) {
        fail("analysis-scratch", "seen flag left set on v" + std::to_string(v));
      }
    }
  }

  // The exact simplex layer audits itself (basis partition, row
  // identities, one slack per linear form); its invariants hold at every
  // site — the deadline poll throws before any tableau mutation.
  const std::string spx = ctx.stx_.audit();
  if (!spx.empty()) fail("simplex", spx);
}

}  // namespace advocat::smt::native
