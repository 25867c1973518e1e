// E6 — Section 5 "Experimental Results": end-to-end verification effort vs
// mesh size, and queue-size independence of the verification time.
//
// Paper reference points (2 GHz Core i7, 2016): a 6x6 mesh with VCs and
// queue size 30 verifies in 67 s and contains 2844 primitives, 36 automata
// and 432 queues. We print the same columns for growing meshes and check
// that verification time does not depend on the queue size — the sweep
// runs as capacity probes on one incremental Verifier session, so the
// per-capacity cost is a single assumption-flip re-solve.
#include <cstdio>

#include "advocat/verifier.hpp"
#include "bench_util.hpp"
#include "coherence/mi_abstract.hpp"

using namespace advocat;

int main() {
  bench::header("E6", "verification effort vs mesh size");

  // Smoke stays at 2x2: 3x3+ one-shot proofs are Z3-only until the native
  // solver learns clauses (see ROADMAP), and smoke runs without Z3 in CI.
  const int max_k = bench::smoke() ? 2 : (bench::full_scale() ? 6 : 5);
  std::printf("\n%-6s %6s %10s %8s %7s %6s %9s %8s %9s %9s %9s\n", "mesh",
              "vcs", "prims", "automata", "queues", "inv", "t_inv(s)",
              "row_ops", "t_enc(s)", "t_smt(s)", "total(s)");
  for (int k = 2; k <= max_k; ++k) {
    const int vcs = k == 6 ? 2 : 1;  // the paper's 6x6 data point uses VCs
    coh::MiAbstractConfig config;
    config.width = k;
    config.height = k;
    config.queue_capacity = 30;
    config.num_vcs = vcs;
    bench::Timer watch;
    coh::MiAbstractSystem sys = coh::build_mi_abstract(config);
    const core::VerifyResult r = core::verify(sys.net);
    std::printf("%dx%-4d %6d %10zu %8zu %7zu %6zu %9.2f %8zu %9.2f %9.2f "
                "%9.2f  [%s]\n",
                k, k, vcs, sys.net.num_prims_desugared(),
                sys.net.automata().size(), sys.net.num_queues(),
                r.num_invariants, r.invariant_seconds, r.invariant_row_ops,
                r.encode_seconds,
                r.solve_seconds, watch.seconds(),
                bench::verdict_string(r.report.result));
    bench::JsonLine("tab_scaling")
        .field("mesh", k)
        .field("vcs", vcs)
        .field("primitives", sys.net.num_prims_desugared())
        .field("invariants", r.num_invariants)
        .field("invariant_seconds", r.invariant_seconds)
        .field("invariant_row_ops", r.invariant_row_ops)
        .field("encode_seconds", r.encode_seconds)
        .field("solve_seconds", r.solve_seconds)
        .field("total_seconds", watch.seconds())
        .field("verdict", bench::verdict_string(r.report.result))
        .solver_stats(r.solve_stats)
        .print();
  }
  std::printf("paper 6x6+VC reference: 2844 primitives, 36 automata, "
              "432 queues, 67 s total.\n");

  // Queue-size independence (the paper's explicit observation), measured
  // as assumption flips on one live session of the sweep mesh.
  const int sweep_k = bench::smoke() ? 2 : 4;
  std::printf("\nverification time vs queue size (%dx%d mesh, one "
              "incremental session):\n",
              sweep_k, sweep_k);
  coh::MiAbstractConfig config;
  config.width = sweep_k;
  config.height = sweep_k;
  config.queue_capacity = 25;
  core::VerifyOptions vo;
  vo.symbolic_capacities = true;
  core::Verifier session(coh::build_mi_abstract(config).net, vo);
  for (std::size_t cap : {25u, 50u, 100u, 200u}) {
    const core::VerifyResult r = session.probe_capacity(cap);
    std::printf("  capacity %4zu: solve %.2fs (%s)\n", cap, r.solve_seconds,
                bench::verdict_string(r.report.result));
    bench::JsonLine("tab_scaling_capacity_sweep")
        .field("mesh", sweep_k)
        .field("capacity", cap)
        .field("encode_seconds", r.encode_seconds)
        .field("solve_seconds", r.solve_seconds)
        .field("total_seconds", r.total_seconds)
        .field("verdict", bench::verdict_string(r.report.result))
        .solver_stats(r.solve_stats)
        .print();
  }
  std::printf("paper: verification time does not depend on queue size.\n");
  return 0;
}
