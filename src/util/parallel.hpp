// Minimal deterministic fork/join helpers for the coarse parallel layers:
// capacity-probe rounds (QueueSizingOptions::probe_threads) and fig4's
// directory-position sweep (--position-threads). Each task owns its own
// solver session; a single solver check is always sequential.
//
// No persistent thread pool: the tasks are coarse — each runs for
// milliseconds to minutes — so std::thread spawn cost is noise, and
// joining at the end of every section keeps everything the tasks share
// read-only while they run.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace advocat::util {

/// Runs fn(i) for i in [0, n) on up to `threads` worker threads and joins.
/// Work is pulled from a shared atomic-free index under a mutex (tasks are
/// coarse). With threads <= 1 everything runs inline on the caller, in
/// order. The first exception thrown by any task is rethrown on the caller
/// after all workers have joined.
inline void parallel_for(std::size_t n, unsigned threads,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::mutex mu;
  std::size_t next = 0;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      std::size_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= n || first_error) return;
        i = next++;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  const std::size_t width = std::min<std::size_t>(threads, n);
  pool.reserve(width);
  for (std::size_t t = 0; t < width; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Static variant: task i always runs on worker i % width, and each worker
/// processes its tasks in increasing order — the schedule (not just the
/// result) is a pure function of (n, threads), which is what keeps the
/// probe scheduler's per-worker sessions, and so its probe sequence,
/// reproducible for a fixed width.
///
/// Error semantics match parallel_for: every worker is joined, exactly one
/// exception (the first captured) is rethrown on the caller, and workers
/// stop picking up new tasks once any task has thrown.
inline void parallel_for_static(std::size_t n, unsigned threads,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t width = std::min<std::size_t>(threads, n);
  std::mutex mu;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(width);
  for (std::size_t t = 0; t < width; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < n; i += width) {
          if (failed.load(std::memory_order_relaxed)) return;
          fn(i);
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace advocat::util
