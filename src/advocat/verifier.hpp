// The end-to-end ADVOCAT pipeline:
//   structural validation → T-derivation → cross-layer invariant
//   generation → block/idle SMT deadlock query (with the invariants
//   conjoined) → verdict + witness.
//
// The pipeline is exposed as an incremental *session* (Verifier): the
// expensive, capacity-independent stages — validation, T-derivation,
// invariant generation, the block/idle encoding, and the solver-side
// translation — run once at construction; every subsequent check() /
// probe_capacity() / probe_capacities() is one solver call whose only
// per-check input is the queue capacities, bound by retractable
// assumptions on one live smt::Solver. The one-shot verify() and the
// queue-capacity search find_minimal_queue_size() are thin wrappers.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "deadlock/checker.hpp"
#include "deadlock/encoder.hpp"
#include "deadlock/witness.hpp"
#include "invariants/generator.hpp"
#include "smt/solver.hpp"
#include "util/budget.hpp"
#include "xmas/network.hpp"
#include "xmas/typing.hpp"

namespace advocat::core {

struct VerifyOptions {
  /// Conjoin generated flow invariants (the paper's method). Without them
  /// the query degenerates to plain Gotmanov-style detection.
  bool use_invariants = true;
  /// Assert the unprojected flow system with nonnegative λ/κ variables
  /// (extension; subsumes the equalities and prunes candidates whose only
  /// flow completions need negative counters). No bench or example sets
  /// it; both MI protocols, GEM5-style included, size without it.
  bool use_flow_completion = false;
  /// Wall-clock limit per check; 0 = unlimited. Folded into the solver's
  /// budget together with budget.deadline_ms (the tighter of the two wins).
  unsigned timeout_ms = 0;
  /// Solver backend: Auto picks Z3 when compiled in, the portable native
  /// solver otherwise.
  smt::Backend backend = smt::Backend::Auto;
  /// Encode queue capacities as symbolic variables bound per check by
  /// solver assumptions instead of baked-in constants. Required for
  /// Verifier::probe_capacity() / probe_capacities(); the encoding is
  /// otherwise equivalent.
  bool symbolic_capacities = false;
  /// Retired: every solver check is one sequential search. Only 0 and 1
  /// are accepted (both mean that search); a larger value makes Verifier
  /// construction throw std::invalid_argument. The field stays until the
  /// callers that still set it are updated.
  unsigned threads = 0;
  /// Per-check resource ceilings (deadline, conflicts, decisions,
  /// propagations, memory — see util::ResourceBudget and
  /// docs/ROBUSTNESS.md). Exhausting one degrades the check to Unknown
  /// with the matching StopReason on VerifyResult; a default-constructed
  /// budget (the default) imposes no limits.
  util::ResourceBudget budget{};
  /// Certify Sat verdicts: decode the model into a concrete state, replay
  /// it on the simulator, and minimize the blocking queue set (see
  /// deadlock::build_witness). The result lands on VerifyResult::witness.
  bool witness_replay = false;
  /// Reachable-state budget per witness replay (see WitnessOptions).
  std::size_t witness_max_states = 50'000;
  /// Certify Unsat verdicts: receives an independently checkable proof
  /// certificate for every Unsat the session's solver reports (see
  /// smt::Solver::set_proof_sink and docs/PROOFS.md). The sink must
  /// outlive the session.
  smt::ProofSink* proof_sink = nullptr;
};

struct VerifyResult {
  deadlock::Report report;
  std::size_t num_invariants = 0;
  std::size_t num_inequalities = 0;
  std::size_t invariant_row_ops = 0;  ///< InvariantSet::row_ops
  std::vector<std::string> invariant_text;  ///< pretty-printed invariants

  /// Static-analysis findings for the session's network (warnings only —
  /// errors reject the network at construction; see docs/ANALYSIS.md).
  std::vector<analysis::Diagnostic> diagnostics;
  /// Wall-clock cost of the pre-encoding static analysis, in milliseconds,
  /// without the T-derivation it runs (that is typing_seconds). Paid once
  /// at session construction and repeated in every result.
  double analysis_ms = 0.0;

  /// Solver search effort, cumulative over the session up to and including
  /// this check (see smt::SolveStats: exact for the native backend,
  /// best-effort for Z3). On the native backend the learned-clause fields
  /// show CDCL working across incremental probes: learned_kept > 0 after a
  /// check means later probes on the session start from those clauses
  /// instead of re-refuting shared substructure.
  smt::SolveStats solve_stats;

  /// Why this check degraded to Unknown (kNone after a definite verdict).
  /// Mirrors solve_stats.stop_reason; a degraded result is never silent.
  util::StopReason stop_reason = util::StopReason::kNone;

  /// Sat verdicts under VerifyOptions::witness_replay: the decoded,
  /// simulator-replayed, minimized counterexample (see deadlock::Witness).
  std::optional<deadlock::Witness> witness;

  double typing_seconds = 0.0;
  double invariant_seconds = 0.0;
  /// Encode vs solve split. For a session the encode cost is paid once at
  /// construction and repeated verbatim in every result; solve_seconds is
  /// this check's marginal cost.
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  /// First check on a session (and the verify() wrapper): construction +
  /// check. Later session checks: this check's wall clock only.
  double total_seconds = 0.0;

  [[nodiscard]] bool deadlock_free() const { return report.deadlock_free(); }
  [[nodiscard]] std::string to_string() const;
};

/// Instrumentation: how often each pipeline stage actually ran on a
/// session. A capacity-sizing run over N probes should show one
/// validation/typing/generation/encode and N checks.
struct SessionStats {
  std::size_t validations = 0;
  std::size_t typings = 0;
  std::size_t invariant_generations = 0;
  std::size_t encodes = 0;
  std::size_t checks = 0;
};

/// Incremental verification session over one network. Construction runs
/// validation, T-derivation, invariant generation (per options) and the
/// deadlock encoding, and asserts everything into a live solver; each
/// check is then a single incremental (re-)solve. Throws
/// std::invalid_argument when the network fails structural validation.
class Verifier {
 public:
  explicit Verifier(xmas::Network net, VerifyOptions options = {});

  // The live solver references factory_, and the invariant set references
  // net_/typing_; member addresses must stay stable for the session's
  // lifetime, so sessions are pinned (construct in place, e.g. inside a
  // std::optional).
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  /// Forwards util::ResourceBudget ceilings to the session's solver for
  /// every subsequent check; a default-constructed budget clears them.
  /// VerifyOptions::timeout_ms keeps applying on top (tighter one wins).
  void set_budget(const util::ResourceBudget& budget);
  /// Cancels the in-flight check from another thread: it returns Unknown
  /// with StopReason::kCancelled at the solver's next cancellation point,
  /// and the session stays fully reusable (the flag is one-shot).
  void cancel();

  /// Re-solves the deadlock query at the network's own queue capacities.
  VerifyResult check();
  /// Assumes capacity `k` for every queue and re-solves: one assumption
  /// flip per probe. Requires VerifyOptions::symbolic_capacities; throws
  /// std::invalid_argument when `k` exceeds xmas::kMaxQueueCapacity.
  VerifyResult probe_capacity(std::size_t capacity);
  /// Assumes every queue's capacity in `candidate` and re-solves. Requires
  /// VerifyOptions::symbolic_capacities, and `candidate` must pass
  /// probe_compatible() (the caller's contract; not re-checked here).
  VerifyResult probe_capacities(const xmas::Network& candidate);

  [[nodiscard]] const xmas::Network& network() const { return net_; }
  [[nodiscard]] const xmas::Typing& typing() const { return typing_; }
  [[nodiscard]] const VerifyOptions& options() const { return options_; }
  [[nodiscard]] const SessionStats& stats() const { return stats_; }
  /// Static-analysis warnings for the session's network (errors throw at
  /// construction, so a live session only ever carries warnings).
  [[nodiscard]] const std::vector<analysis::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  /// Pre-encoding static analysis cost in milliseconds (see VerifyResult).
  [[nodiscard]] double analysis_ms() const { return analysis_ms_; }
  /// Session-cumulative solver search statistics (see smt::SolveStats) —
  /// the same snapshot every VerifyResult carries, without a check.
  [[nodiscard]] const smt::SolveStats& solve_stats() const;

  /// Whether `other` differs from the session's network only in queue
  /// capacities — the precondition for probing `other`'s capacities on
  /// this session. Compares primitives, wiring, colors, automaton
  /// skeletons, and the derived per-channel typing (a semantic
  /// fingerprint of the std::function-valued parts: function maps, switch
  /// routes, transition guards/transforms); a derivation that left out an
  /// out-of-range result is incompatible. Function bodies that diverge
  /// without moving any color past the typing are undetectable and remain
  /// the caller's contract.
  [[nodiscard]] bool probe_compatible(const xmas::Network& other) const;

 private:
  /// One check with every symbolic capacity bound to `capacity_of(queue)`.
  VerifyResult run_check(
      const std::function<std::size_t(xmas::PrimId)>& capacity_of);
  /// The solver's budget: options_.budget with options_.timeout_ms folded
  /// into its deadline.
  [[nodiscard]] util::ResourceBudget solver_budget() const;

  xmas::Network net_;
  VerifyOptions options_;
  std::vector<analysis::Diagnostic> diagnostics_;
  double analysis_ms_ = 0.0;
  xmas::Typing typing_;
  smt::ExprFactory factory_;
  deadlock::Encoding enc_;
  std::unique_ptr<smt::Solver> solver_;

  inv::InvariantSet invariants_;

  SessionStats stats_;
  double construct_typing_seconds_ = 0.0;
  double invariant_seconds_ = 0.0;
  double construct_encode_seconds_ = 0.0;
  double construct_seconds_ = 0.0;  ///< total ctor wall clock
  bool construction_charged_ = false;
};

/// Runs the full pipeline once (thin wrapper over a one-check Verifier).
/// Throws std::invalid_argument when the network fails structural
/// validation.
VerifyResult verify(const xmas::Network& net, const VerifyOptions& options = {});

struct QueueSizingOptions {
  std::size_t min_capacity = 1;  ///< at least 1
  std::size_t max_capacity = 256;
  /// Per-probe options. Their limits (timeout_ms, budget) bound the whole
  /// run too: it makes at most about 2·log2(max_capacity) probes.
  VerifyOptions verify;
  /// Retired: capacities are probed one at a time on one session. Only 0
  /// and 1 are accepted (both mean that search); a larger value makes
  /// find_minimal_queue_size throw std::invalid_argument. The field stays
  /// until the callers that still set it are updated.
  unsigned probe_threads = 1;
};

struct QueueSizingResult {
  /// Smallest probed capacity proven deadlock-free; 0 when none within
  /// [min, max] was.
  std::size_t minimal_capacity = 0;
  /// (capacity, verdict) for every probe, in probe order. Unsat means
  /// deadlock-free, Sat a deadlock candidate; Unknown (timeout / degraded
  /// search) is treated as not-proven-free by the search, and callers
  /// should report it as "unknown" rather than "deadlock".
  std::vector<std::pair<std::size_t, smt::SatResult>> probes;
  /// Probes whose verdict was Unknown. When nonzero, minimal_capacity is
  /// still sound (a capacity is only accepted on a definite Unsat) but may
  /// be larger than the true minimum.
  std::size_t unknown_probes = 0;
  /// Why the search degraded, combined over every Unknown probe
  /// (highest-priority reason wins; kNone when every probe was definite).
  util::StopReason stop_reason = util::StopReason::kNone;
  double seconds = 0.0;
  /// The session's final solver search effort, cumulative over its probes.
  smt::SolveStats solve_stats;

  // Instrumentation (see SessionStats): a whole sizing run costs one
  // validation + one invariant generation + one encode, and one solver
  // check per probe. make_net is called once per probe: the first probe
  // (min_capacity) reuses the session's network, and each later one
  // builds its candidate and derives its typing as the probe_compatible
  // fingerprint; that contract check is not a pipeline stage and is not
  // counted here.
  std::size_t validations = 0;
  std::size_t invariant_generations = 0;
  std::size_t encodes = 0;
  std::size_t solver_checks = 0;

  /// The session's static-analysis wall clock in milliseconds, and the
  /// number of analyzer diagnostics (warnings) the probed network carries.
  double analysis_ms = 0.0;
  std::size_t diagnostics = 0;
};

/// Finds the minimal uniform queue capacity for which `make_net(capacity)`
/// verifies deadlock-free. Assumes monotonicity (larger queues never
/// introduce deadlocks — true for the paper's case studies): exponential
/// probe up from min_capacity, then binary search. Every probe is an
/// assumption flip on one live Verifier session built once from
/// `make_net(min_capacity)`, so make_net must vary only queue capacities
/// with its argument. Throws std::invalid_argument, before make_net is
/// called, when probe_threads exceeds 1, when min_capacity is 0 or
/// exceeds max_capacity, or when max_capacity exceeds
/// xmas::kMaxQueueCapacity; and when a probed network fails
/// Verifier::probe_compatible against the session's (the message names
/// the capacity).
QueueSizingResult find_minimal_queue_size(
    const std::function<xmas::Network(std::size_t)>& make_net,
    const QueueSizingOptions& options = {});

}  // namespace advocat::core
