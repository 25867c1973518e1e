// Certified Sat verdicts: counterexample replay on the simulator.
//
// A Sat model of the block/idle query is only a deadlock *candidate* — the
// encoding over-approximates reachability, and the boolean fixpoint can
// mark cycles blocked that a concrete scheduler would drain. This module
// turns the model into a concrete sim::State and *replays* it on the
// executable semantics (src/sim):
//
//  1. decode    — read queue occupancies and automaton states out of the
//                 model via the shared variable-naming convention
//                 (varnames.hpp) and check the state is self-consistent
//                 (occupancy within capacity, exactly one active state per
//                 automaton).
//  2. replay    — for every fired deadlock disjunct, exhaustively explore
//                 the states reachable from the decoded state (bounded
//                 BFS) and confirm the claimed ingredient is genuinely
//                 wedged: a `source_blocked` source never initiates an
//                 injection, a `packet_stuck` queue holds a color that no
//                 reachable event pops, a `dead` automaton never moves.
//                 Confirmation requires the exploration to be exhaustive
//                 within the budget; a single reachable counter-event
//                 refutes a claim regardless of the budget.
//  3. minimize  — greedily empty queues whose contents are not needed for
//                 the blockage, re-replaying after each removal, until the
//                 witness is inclusion-minimal: it is still blocked, and
//                 emptying any single remaining blocking queue un-blocks
//                 it. A removal is kept only when every claim is
//                 confirmed, so each probe replay stops at its first
//                 refuted claim.
//
// The tags are parsed once, and one sim::Successors enumerator, with its
// resolved routes and memo tables, serves the replay and every
// minimization probe. Each replay looks the claims an event can bear on
// up by its initiator, popped queue and moved automaton.
//
// The result is attached to core::VerifyResult as the Sat-side
// counterpart of the Unsat proof certificate (docs/PROOFS.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "smt/solver.hpp"
#include "xmas/network.hpp"
#include "xmas/typing.hpp"

namespace advocat::deadlock {

enum class ClaimStatus {
  Confirmed,     ///< exhaustively verified from the witness state
  Refuted,       ///< a reachable event contradicts the claim
  Inconclusive,  ///< state budget exhausted before a verdict
};

[[nodiscard]] const char* to_string(ClaimStatus s);

/// One fired deadlock disjunct (Report::fired tag) and its replay verdict.
struct WitnessClaim {
  std::string tag;
  ClaimStatus status = ClaimStatus::Inconclusive;
  /// Human-readable evidence: the refuting event label, the stuck color,
  /// or the budget note.
  std::string note;
};

struct WitnessOptions {
  /// Reachable-state budget per replay (the minimization pass re-replays
  /// once per removed-queue probe, each under the same budget).
  std::size_t max_states = 50'000;
};

/// A decoded, replayed, and (when blocked) minimized deadlock witness.
struct Witness {
  /// The concrete state decoded from the model. After minimization this is
  /// the *minimized* state (non-essential queues emptied).
  sim::State state;
  /// Simulator::describe of `state`.
  std::string state_text;

  /// Model/state decode agreed: occupancies within [0, capacity], one
  /// active state per automaton. Replay is skipped when false.
  bool consistent = false;
  /// Decode problems when !consistent.
  std::vector<std::string> inconsistencies;

  bool replayed = false;
  /// The replay BFS covered every state reachable from `state` within the
  /// budget. Claims can only be Confirmed on an exhaustive exploration.
  /// Both this and `states_explored` describe the replay of the reported
  /// `state`: the decoded one, or after minimization the last accepted
  /// probe.
  bool exhaustive = false;
  std::size_t states_explored = 0;

  /// What the witness cost: wall-clock seconds of the replay and the
  /// minimization, the minimization's probe replays (each stops at its
  /// first refuted claim) and the states those probes expanded.
  double replay_seconds = 0.0;
  std::size_t minimize_replays = 0;
  std::size_t minimize_states = 0;

  /// Every fired disjunct's replay verdict.
  std::vector<WitnessClaim> claims;
  /// All claims Confirmed (and at least one claim): the candidate is a
  /// genuine blocked execution of the simulator semantics.
  bool blocked = false;

  /// Names of the queues whose contents the blockage needs, after greedy
  /// minimization (only populated when blocked): emptying any single one
  /// breaks the blockage.
  std::vector<std::string> blocking_queues;

  [[nodiscard]] std::string to_string() const;
  /// JSON object per the schema in docs/PROOFS.md.
  [[nodiscard]] std::string to_json() const;
};

/// Replays `state` against the given fired-disjunct tags: bounded BFS over
/// the states reachable from `state`, returning per-claim verdicts.
/// Exposed separately so tests can verify minimality directly (empty one
/// blocking queue, re-replay, expect a broken claim).
[[nodiscard]] std::vector<WitnessClaim> replay_claims(
    const xmas::Network& net, const sim::State& state,
    const std::vector<std::string>& tags, std::size_t max_states,
    std::size_t* states_explored = nullptr, bool* exhaustive = nullptr);

/// Decodes the model, replays every fired claim, and minimizes the
/// blocking queue set (see file comment). `fired` is Report::fired.
[[nodiscard]] Witness build_witness(const xmas::Network& net,
                                    const xmas::Typing& typing,
                                    const smt::Model& model,
                                    const std::vector<std::string>& fired,
                                    const WitnessOptions& options = {});

}  // namespace advocat::deadlock
