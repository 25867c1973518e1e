// Example: compute the minimal deadlock-free queue size for a mesh — the
// paper's headline application (Fig. 4).
//
// Usage:   ./build/examples/queue_sizing [mesh_k=3] [directory_node=-1]
//
// Both backends handle the 3x3 and 4x4 meshes in seconds: the native
// solver's CDCL core (PR 4) keeps learned clauses across the capacity
// probes, so each probe re-solves only what actually changed.
#include <cstdio>
#include <cstdlib>

#include "advocat/verifier.hpp"
#include "coherence/mi_abstract.hpp"

using namespace advocat;

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 3;
  const int dir = argc > 2 ? std::atoi(argv[2]) : -1;

  auto make = [k, dir](std::size_t cap) {
    coh::MiAbstractConfig config;
    config.width = k;
    config.height = k;
    config.queue_capacity = cap;
    config.directory_node = dir;
    return std::move(coh::build_mi_abstract(config).net);
  };

  core::QueueSizingOptions options;
  options.min_capacity = 1;
  options.max_capacity = 256;
  const core::QueueSizingResult result =
      core::find_minimal_queue_size(make, options);

  std::printf("%dx%d mesh, directory node %d\n", k, k,
              dir < 0 ? k * k - 1 : dir);
  for (const auto& [cap, verdict] : result.probes) {
    const char* text = verdict == smt::SatResult::Unsat
                           ? "deadlock-free"
                           : (verdict == smt::SatResult::Sat ? "deadlock"
                                                             : "unknown");
    std::printf("  capacity %3zu: %s\n", cap, text);
  }
  if (result.minimal_capacity == 0) {
    std::printf("no safe capacity within [1, %zu]%s\n", options.max_capacity,
                result.unknown_probes > 0
                    ? " (some probes returned unknown)"
                    : "");
    return 1;
  }
  if (result.unknown_probes > 0) {
    std::printf("note: %zu probe(s) returned unknown; the minimum below is "
                "sound but may be over-sized\n",
                result.unknown_probes);
  }
  std::printf("minimal safe queue capacity: %zu  (%.2fs, %zu probes)\n",
              result.minimal_capacity, result.seconds, result.probes.size());
  std::printf("pipeline stages: %zu validation(s), %zu invariant "
              "generation(s), %zu encode(s), %zu solver checks\n",
              result.validations, result.invariant_generations,
              result.encodes, result.solver_checks);
  return 0;
}
