#include "sim/explorer.hpp"

#include <algorithm>
#include <limits>

#include "sim/state_set.hpp"
#include "util/stopwatch.hpp"

namespace advocat::sim {

namespace {

/// How a visited state was first reached: its predecessor's index and the
/// event (initiator, colour) that led here.
struct Arrival {
  std::uint32_t pred;
  xmas::PrimId initiator;
  xmas::ColorId color;
};

constexpr std::uint32_t kRoot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

ExploreResult explore(const Simulator& sim, const ExploreOptions& options) {
  util::Stopwatch watch;
  ExploreResult result;

  // Visited states in discovery order; expanding them by index is the BFS.
  StateSet visited;
  std::vector<Arrival> arrivals;
  std::vector<std::uint8_t> packed;
  sim.pack(sim.initial(), packed);
  visited.insert(packed);
  arrivals.push_back({kRoot, -1, xmas::kNoColor});

  Successors successors(sim);
  std::size_t deadlock = kRoot;
  bool stopped = false;
  for (std::size_t i = 0; i < visited.size(); ++i) {
    if (visited.size() > options.max_states) {
      stopped = true;  // budget exhausted; complete stays false
      break;
    }
    const std::size_t fired =
        successors.for_each(visited[i], [&](const Step& e) {
          if (visited.insert(e.next)) {
            arrivals.push_back(
                {static_cast<std::uint32_t>(i), e.initiator, e.color});
          }
        });
    result.events_fired += fired;
    if (fired == 0 && sim.quiescence_is_deadlock(sim.unpack(visited[i]))) {
      deadlock = i;
      if (options.stop_at_deadlock) {
        stopped = true;
        break;
      }
    }
  }

  if (deadlock != kRoot) {
    result.deadlock = sim.unpack(visited[deadlock]);
    // Reconstruct the trace by walking predecessors.
    for (std::size_t at = deadlock; arrivals[at].pred != kRoot;
         at = arrivals[at].pred) {
      result.trace.push_back(sim.label(arrivals[at].initiator, arrivals[at].color));
    }
    std::reverse(result.trace.begin(), result.trace.end());
  }
  result.states_visited = visited.size();
  result.complete = !stopped;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace advocat::sim
