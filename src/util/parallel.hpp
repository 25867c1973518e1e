// Minimal fork/join helper for the one coarse parallel layer: fig4's
// directory-position sweep (--position-threads). Each task owns its own
// sizing run and solver session; a single solver check and a single
// sizing run are always sequential.
//
// No persistent thread pool: the tasks are coarse — each runs for
// milliseconds to minutes — so std::thread spawn cost is noise, and
// joining at the end keeps everything the tasks share read-only while
// they run.
#pragma once

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

}  // namespace advocat::util
