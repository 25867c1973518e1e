// Sharded learned-clause exchange between parallel search workers.
//
// Soundness rests on the assumption-level invariant from the sequential
// solver (see native_solver.hpp): every non-tainted learned clause is
// entailed by the *permanent* material alone (translation gates, root
// assertions), never by per-check assumptions or cube literals — those
// can only appear inside a clause as explicit negated literals. All workers of one NativeSolver share the same variable
// numbering (the translation is done before workers spawn), so a clause
// learned by any worker is a valid permanent clause for every other
// worker, and for the primary context that persists it across checks.
//
// Tainted clauses (descended from an Unknown-degraded leaf) are NOT
// entailed and must never be exported; the exporters filter them.
//
// The structure is a handful of mutex-guarded append-only shards:
// publishers append to the shard keyed by their worker id, consumers keep
// a private cursor per shard and drain only the suffix they have not seen.
// Contention is negligible — exchange traffic is a tiny fraction of
// propagation work — and the mutex keeps the type trivially correct under
// ThreadSanitizer, which is worth more here than a lock-free ring.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace advocat::smt::native {

class Auditor;

class ClauseExchange {
 public:
  static constexpr std::size_t kShards = 8;
  /// Per-shard clause cap: a runaway exporter degrades to dropping its
  /// clauses (counted) instead of growing without bound.
  static constexpr std::size_t kShardCap = 1u << 14;

  using Lits = std::vector<std::int32_t>;
  using Cursor = std::array<std::size_t, kShards>;

  /// Publishes a clause from worker `source`. While proof logging is on,
  /// `proof_stamp` is the clause's origin id in the session proof trace —
  /// the exporter logs before publishing, so an importer's first use of
  /// the clause always postdates the clause's trace entry. Returns false
  /// (and counts a drop) when the shard is full.
  bool publish(const Lits& lits, unsigned source,
               std::uint64_t proof_stamp = 0) {
    if (util::fault::enabled()) {
      // Fault sites act locally, never throw: the exchange is best-effort
      // by design, so a stalled publisher (descheduled thread) or a forced
      // drop (full shard) exercises paths that must already be correct.
      if (util::fault::fire(util::fault::Site::kExchangeStall)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (util::fault::fire(util::fault::Site::kExchangeOverflow)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    Shard& sh = shards_[source % kShards];
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (sh.clauses.size() >= kShardCap) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      sh.clauses.push_back(lits);
      sh.stamps.push_back(proof_stamp);
    }
    published_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Copies every clause published since `cursor` into `out` (appending)
  /// and advances the cursor; each consumer sees each clause exactly
  /// once. `skip_shard` excludes one shard — a worker passes its own
  /// publish shard so it never re-imports its own exports (with more
  /// workers than shards this also skips shard-mates' clauses, which is
  /// merely lost sharing, never unsoundness).
  void drain(Cursor& cursor, std::vector<Lits>& out,
             std::size_t skip_shard = kShards) {
    if (util::fault::enabled() &&
        util::fault::fire(util::fault::Site::kExchangeStall)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      if (s == skip_shard) continue;
      Shard& sh = shards_[s];
      std::lock_guard<std::mutex> lock(sh.mu);
      for (; cursor[s] < sh.clauses.size(); ++cursor[s]) {
        out.push_back(sh.clauses[cursor[s]]);
      }
    }
  }

  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  // Reads the shards (under their locks) under ADVOCAT_AUDIT.
  friend class Auditor;

  struct Shard {
    std::mutex mu;
    std::vector<Lits> clauses;
    std::vector<std::uint64_t> stamps;  // 1:1 origin proof ids (0 = none)
  };
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace advocat::smt::native
