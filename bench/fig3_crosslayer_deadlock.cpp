// E3 — Fig. 3: the cross-layer deadlock on a 2x2 mesh.
//
// Paper: with every queue of size 2, the abstract MI protocol deadlocks
// (cache (0,0) wedges get+put toward the directory, the directory spins on
// inv injection, the owner cannot flush); with size 3 the system is
// deadlock-free. ADVOCAT finds the size-2 deadlock, the explicit-state
// explorer confirms it is *reachable* (the role UPPAAL plays in the
// paper), and ADVOCAT proves size 3 free.
#include <cstdio>

#include "advocat/verifier.hpp"
#include "bench_util.hpp"
#include "coherence/mi_abstract.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"

using namespace advocat;

int main() {
  bench::header("E3 / Fig. 3", "cross-layer deadlock in a 2x2 mesh");

  for (std::size_t cap : {2u, 3u}) {
    coh::MiAbstractConfig config;
    config.queue_capacity = cap;
    coh::MiAbstractSystem sys = coh::build_mi_abstract(config);
    const core::VerifyResult result = core::verify(sys.net);
    std::printf("\nqueue size %zu: paper=%s measured=%s (%.2fs)\n", cap,
                cap == 2 ? "deadlock" : "free",
                bench::verdict_string(result.report.result),
                result.total_seconds);
    bench::JsonLine line("fig3_crosslayer_deadlock");
    line.field("capacity", cap)
        .field("verdict", bench::verdict_string(result.report.result))
        .field("encode_seconds", result.encode_seconds)
        .field("solve_seconds", result.solve_seconds)
        .field("seconds", result.total_seconds)
        .solver_stats(result.solve_stats);
    // Only a definite Sat carries a witness worth confirming; an Unknown
    // verdict is reported above and is not a harness failure.
    if (result.report.result == smt::SatResult::Sat) {
      std::printf("%s", result.report.to_string().c_str());

      sim::Simulator simulator(sys.net);
      sim::ExploreOptions options;
      options.max_states = 500'000;
      const sim::ExploreResult reach = sim::explore(simulator, options);
      // collect_bench.sh's smoke guard fails unless the capacity-2 line
      // says the explorer reached the deadlock.
      line.field("explorer_deadlock", reach.deadlock.has_value())
          .field("explorer_states", reach.states_visited)
          .field("explorer_trace", reach.trace.size())
          .field("explorer_seconds", reach.seconds);
      if (reach.deadlock.has_value()) {
        std::printf("explorer: deadlock REACHABLE after %zu states; "
                    "trace (%zu events):\n",
                    reach.states_visited, reach.trace.size());
        for (const auto& label : reach.trace) {
          std::printf("  %s\n", label.c_str());
        }
        std::printf("deadlocked state:\n%s",
                    simulator.describe(*reach.deadlock).c_str());
      } else {
        std::printf("explorer: no deadlock within %zu states\n",
                    reach.states_visited);
      }
    }
    line.print();
  }
  return 0;
}
