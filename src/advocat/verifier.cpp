#include "advocat/verifier.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "smt/expr.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace advocat::core {

std::string VerifyResult::to_string() const {
  std::ostringstream os;
  os << report.to_string();
  if (!diagnostics.empty()) {
    os << "analysis: " << diagnostics.size() << " warning(s)\n";
    for (const analysis::Diagnostic& d : diagnostics) {
      os << "  " << d.to_string() << "\n";
    }
  }
  os << "invariants: " << num_invariants << " equalities, "
     << num_inequalities << " inequalities\n";
  os << "time: typing " << typing_seconds << "s, invariants "
     << invariant_seconds << "s, encode " << encode_seconds << "s, solve "
     << solve_seconds << "s, total " << total_seconds << "s\n";
  os << "solver: " << solve_stats.conflicts << " conflicts, "
     << solve_stats.decisions << " decisions, " << solve_stats.propagations
     << " propagations, " << solve_stats.restarts << " restarts, "
     << solve_stats.learned_clauses << " learned ("
     << solve_stats.learned_kept << " kept, " << solve_stats.deleted_clauses
     << " deleted)\n";
  if (stop_reason != util::StopReason::kNone) {
    os << "stopped: " << util::to_string(stop_reason) << "\n";
  }
  if (witness.has_value()) os << witness->to_string();
  return os.str();
}

Verifier::Verifier(xmas::Network net, VerifyOptions options)
    : net_(std::move(net)), options_(options) {
  if (options_.threads > 1) {
    throw std::invalid_argument(
        "verify: VerifyOptions::threads = " +
        std::to_string(options_.threads) +
        " is not supported: each check is one sequential search (use 0 or "
        "1; QueueSizingOptions::probe_threads runs probes in parallel)");
  }
  util::Stopwatch total;

  util::Stopwatch analysis_watch;
  analysis::AnalysisResult ar = analysis::analyze(net_);
  ++stats_.validations;
  if (ar.has_errors()) {
    std::string msg = "verify: invalid network:";
    for (const analysis::Diagnostic& d : ar.diagnostics) {
      if (d.severity == analysis::Severity::Error) {
        msg += "\n  " + d.to_string();
      }
    }
    throw std::invalid_argument(msg);
  }
  diagnostics_ = std::move(ar.diagnostics);
  analysis_ms_ = analysis_watch.seconds() * 1000.0;

  util::Stopwatch watch;
  typing_ = xmas::Typing::derive(net_);
  ++stats_.typings;
  construct_typing_seconds_ = watch.seconds();

  watch.reset();
  deadlock::EncoderOptions eopts;
  eopts.symbolic_capacities = options_.symbolic_capacities;
  deadlock::Encoder encoder(net_, typing_, factory_, eopts);
  enc_ = encoder.encode();
  ++stats_.encodes;
  construct_encode_seconds_ = watch.seconds();

  solver_ = smt::make_solver(factory_, options_.backend);
  // Before any assertion reaches the solver, so every Unsat of the session
  // is certified from a complete clause log.
  if (options_.proof_sink != nullptr) {
    solver_->set_proof_sink(options_.proof_sink);
  }
  const util::ResourceBudget budget = solver_budget();
  if (!budget.unlimited()) solver_->set_budget(budget);
  for (smt::ExprId e : enc_.structural) solver_->add(e);
  for (smt::ExprId e : enc_.definitions) solver_->add(e);
  solver_->add(enc_.deadlock);

  if (options_.use_invariants) {
    util::Stopwatch inv_watch;
    invariants_ = inv::generate(net_, typing_);
    invariant_seconds_ = inv_watch.seconds();
    ++stats_.invariant_generations;
    for (smt::ExprId e : invariants_.to_smt(factory_)) solver_->add(e);
  }
  if (options_.use_flow_completion) {
    for (smt::ExprId e : inv::flow_completion_smt(net_, typing_, factory_)) {
      solver_->add(e);
    }
  }

  construct_seconds_ = total.seconds();
}

util::ResourceBudget Verifier::solver_budget() const {
  util::ResourceBudget b = options_.budget;
  const unsigned t = options_.timeout_ms;
  if (t != 0 && (b.deadline_ms == 0 || t < b.deadline_ms)) b.deadline_ms = t;
  return b;
}

VerifyResult Verifier::run_check(
    const std::function<std::size_t(xmas::PrimId)>& capacity_of) {
  util::Stopwatch watch;

  std::vector<smt::ExprId> assumptions;
  // Capacity bindings: every symbolic capacity variable must be pinned per
  // check, or the solver could pick capacities that fabricate candidates.
  for (const auto& [qid, capvar] : enc_.capacity_vars) {
    assumptions.push_back(factory_.eq(
        capvar,
        factory_.int_const(static_cast<std::int64_t>(capacity_of(qid)))));
  }

  VerifyResult result;
  result.report.num_definitions = enc_.definitions.size();
  result.report.encode_seconds = construct_encode_seconds_;

  util::Stopwatch solve;
  bool fault_unwound = false;
  try {
    result.report.result = solver_->check_assuming(assumptions);
  } catch (const util::fault::FaultInjected&) {
    // Safety net: an injected fault that escapes the solver's own
    // handling (they all unwind at assumption-retracted safe points)
    // degrades the check to Unknown; the session stays usable.
    result.report.result = smt::SatResult::Unknown;
    fault_unwound = true;
  }
  result.report.solve_seconds = solve.seconds();
  result.report.solve_stats = solver_->solve_stats();
  result.solve_stats = result.report.solve_stats;
  if (result.report.result == smt::SatResult::Unknown) {
    // Every degraded verdict carries a reason — never a silent Unknown.
    result.stop_reason =
        fault_unwound ? util::StopReason::kFaultInjected
        : result.solve_stats.stop_reason == util::StopReason::kNone
            ? util::StopReason::kDegraded
            : result.solve_stats.stop_reason;
  }
  ++stats_.checks;

  if (result.report.result == smt::SatResult::Sat) {
    deadlock::decode_witness(net_, typing_, factory_, enc_, solver_->model(),
                             result.report);
    if (options_.witness_replay) {
      deadlock::WitnessOptions wo;
      wo.max_states = options_.witness_max_states;
      result.witness = deadlock::build_witness(net_, typing_, solver_->model(),
                                               result.report.fired, wo);
    }
  }

  if (options_.use_invariants) {
    result.num_invariants = invariants_.equalities.size();
    result.num_inequalities = invariants_.inequalities.size();
    result.invariant_row_ops = invariants_.row_ops;
    result.invariant_text = invariants_.to_strings();
  }
  result.diagnostics = diagnostics_;
  result.analysis_ms = analysis_ms_;
  result.typing_seconds = construct_typing_seconds_;
  result.invariant_seconds = invariant_seconds_;
  result.encode_seconds = construct_encode_seconds_;
  result.solve_seconds = result.report.solve_seconds;
  result.total_seconds =
      watch.seconds() + (construction_charged_ ? 0.0 : construct_seconds_);
  construction_charged_ = true;
  return result;
}

const smt::SolveStats& Verifier::solve_stats() const {
  return solver_->solve_stats();
}

void Verifier::set_budget(const util::ResourceBudget& budget) {
  options_.budget = budget;
  solver_->set_budget(solver_budget());
}

void Verifier::cancel() { solver_->cancel(); }

VerifyResult Verifier::check() {
  return run_check(
      [this](xmas::PrimId q) { return net_.prim(q).capacity; });
}

VerifyResult Verifier::probe_capacity(std::size_t capacity) {
  if (!options_.symbolic_capacities) {
    throw std::logic_error(
        "Verifier::probe_capacity requires VerifyOptions::symbolic_capacities");
  }
  if (capacity > xmas::kMaxQueueCapacity) {
    throw std::invalid_argument(
        "Verifier::probe_capacity: capacity " + std::to_string(capacity) +
        " exceeds " + std::to_string(xmas::kMaxQueueCapacity));
  }
  return run_check([capacity](xmas::PrimId) { return capacity; });
}

VerifyResult Verifier::probe_capacities(const xmas::Network& candidate) {
  if (!options_.symbolic_capacities) {
    throw std::logic_error(
        "Verifier::probe_capacities requires "
        "VerifyOptions::symbolic_capacities");
  }
  return run_check(
      [&candidate](xmas::PrimId q) { return candidate.prim(q).capacity; });
}

bool Verifier::probe_compatible(const xmas::Network& other) const {
  if (other.num_prims() != net_.num_prims() ||
      other.num_channels() != net_.num_channels() ||
      other.automata().size() != net_.automata().size() ||
      other.colors().size() != net_.colors().size()) {
    return false;
  }
  for (xmas::ColorId c = 0;
       c < static_cast<xmas::ColorId>(net_.colors().size()); ++c) {
    if (!(other.colors().get(c) == net_.colors().get(c))) return false;
  }
  for (std::size_t i = 0; i < net_.prims().size(); ++i) {
    const xmas::Primitive& a = net_.prims()[i];
    const xmas::Primitive& b = other.prims()[i];
    if (a.kind != b.kind || a.name != b.name || a.in.size() != b.in.size() ||
        a.out.size() != b.out.size() || a.fifo != b.fifo ||
        a.fair != b.fair || a.automaton != b.automaton ||
        a.source_colors != b.source_colors) {
      return false;
    }
  }
  for (std::size_t i = 0; i < net_.channels().size(); ++i) {
    const xmas::Channel& a = net_.channels()[i];
    const xmas::Channel& b = other.channels()[i];
    if (a.initiator != b.initiator || a.init_port != b.init_port ||
        a.target != b.target || a.tgt_port != b.tgt_port) {
      return false;
    }
  }
  for (std::size_t i = 0; i < net_.automata().size(); ++i) {
    const xmas::Automaton& a = net_.automata()[i];
    const xmas::Automaton& b = other.automata()[i];
    if (a.name != b.name || a.num_states() != b.num_states() ||
        a.states != b.states || a.initial != b.initial ||
        a.num_in != b.num_in || a.num_out != b.num_out ||
        a.transitions.size() != b.transitions.size()) {
      return false;
    }
    for (std::size_t t = 0; t < a.transitions.size(); ++t) {
      if (a.transitions[t].from != b.transitions[t].from ||
          a.transitions[t].to != b.transitions[t].to ||
          a.transitions[t].label != b.transitions[t].label) {
        return false;
      }
    }
  }
  // Function bodies (Function::func, Switch::route, transition guards and
  // transforms) are std::function and cannot be compared directly; the
  // derived per-channel color sets are a semantic fingerprint of them, so
  // any behavioural drift that changes what flows where is caught here.
  // A factory whose functions differ *without* moving any color remains
  // the caller's responsibility (see find_minimal_queue_size).
  const xmas::Typing other_typing = xmas::Typing::derive(other);
  if (other_typing.num_channels() != typing_.num_channels()) return false;
  for (xmas::ChanId c = 0;
       c < static_cast<xmas::ChanId>(typing_.num_channels()); ++c) {
    if (other_typing.of(c) != typing_.of(c)) return false;
  }
  return true;
}

VerifyResult verify(const xmas::Network& net, const VerifyOptions& options) {
  // Copies the network into the one-check session; that copy is noise
  // next to encoding + solving, and keeps Verifier's ownership story
  // simple (sessions always own their network).
  Verifier session(net, options);
  return session.check();
}

namespace {

/// Overall-search deadline for a sizing run (QueueSizingOptions::budget).
/// The discrete ceilings are per-probe and travel on the VerifyOptions.
class SizingDeadline {
 public:
  explicit SizingDeadline(const util::ResourceBudget& b)
      : active_(b.deadline_ms != 0),
        at_(std::chrono::steady_clock::now() +
            std::chrono::milliseconds(b.deadline_ms)) {}
  [[nodiscard]] bool expired() const {
    return active_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool active_;
  std::chrono::steady_clock::time_point at_;
};

/// Copies the sizing budget's per-probe ceilings onto the per-check
/// verify budget wherever the caller left the latter unlimited; the
/// overall deadline is the scheduler's, never the probe's.
VerifyOptions with_probe_budget(const VerifyOptions& base,
                                const util::ResourceBudget& sizing) {
  VerifyOptions vo = base;
  util::ResourceBudget& b = vo.budget;
  if (b.max_conflicts == 0) b.max_conflicts = sizing.max_conflicts;
  if (b.max_decisions == 0) b.max_decisions = sizing.max_decisions;
  if (b.max_propagations == 0) b.max_propagations = sizing.max_propagations;
  if (b.max_memory_bytes == 0) b.max_memory_bytes = sizing.max_memory_bytes;
  return vo;
}

void add_stats(smt::SolveStats& into, const smt::SolveStats& s) {
  into.mean_conflict_lits = smt::merged_mean_conflict_lits(into, s);
  into.conflicts += s.conflicts;
  into.conflicts_clause += s.conflicts_clause;
  into.conflicts_interval_farkas += s.conflicts_interval_farkas;
  into.conflicts_interval_integer += s.conflicts_interval_integer;
  into.leaves_reached += s.leaves_reached;
  into.leaves_refuted += s.leaves_refuted;
  into.decisions += s.decisions;
  into.propagations += s.propagations;
  into.restarts += s.restarts;
  into.learned_clauses += s.learned_clauses;
  into.deleted_clauses += s.deleted_clauses;
  into.learned_kept += s.learned_kept;
  into.learned_hits += s.learned_hits;
  into.theory_pivots += s.theory_pivots;
  into.farkas_explanations += s.farkas_explanations;
  into.arena_compactions += s.arena_compactions;
  into.arena_bytes = std::max(into.arena_bytes, s.arena_bytes);
  into.peak_arena_bytes = std::max(into.peak_arena_bytes, s.peak_arena_bytes);
  into.stop_reason = util::combine(into.stop_reason, s.stop_reason);
}

}  // namespace

// Round-based capacity search: a ladder round probes the next W exponential
// rungs concurrently, then k-section rounds narrow the bad/good interval
// with up to W evenly spaced midpoints per round; at W = 1 that is the
// plain exponential + binary search. Each worker owns a full Verifier
// session, so learned clauses persist within a worker across its rounds.
// make_net, the probe_compatible contract check and all result
// bookkeeping stay on the scheduling thread. Probes are assigned worker
// i % W statically, so for a fixed W the whole probe sequence (and
// QueueSizingResult::probes) is deterministic; the final verdict never
// depends on W because a capacity is only accepted on its own definite
// Unsat.
QueueSizingResult find_minimal_queue_size(
    const std::function<xmas::Network(std::size_t)>& make_net,
    const QueueSizingOptions& options) {
  if (options.min_capacity > options.max_capacity) {
    throw std::invalid_argument(
        "find_minimal_queue_size: min_capacity " +
        std::to_string(options.min_capacity) + " exceeds max_capacity " +
        std::to_string(options.max_capacity));
  }
  if (options.max_capacity > xmas::kMaxQueueCapacity) {
    throw std::invalid_argument(
        "find_minimal_queue_size: max_capacity " +
        std::to_string(options.max_capacity) + " exceeds " +
        std::to_string(xmas::kMaxQueueCapacity));
  }
  const unsigned width = std::min(
      options.probe_threads == 0 ? util::env_threads(1) : options.probe_threads,
      16u);
  util::Stopwatch total;
  QueueSizingResult result;
  const SizingDeadline deadline(options.budget);

  VerifyOptions vo = with_probe_budget(options.verify, options.budget);
  vo.symbolic_capacities = true;
  std::vector<std::unique_ptr<Verifier>> sessions;
  sessions.reserve(width);
  for (unsigned w = 0; w < width; ++w) {
    sessions.push_back(
        std::make_unique<Verifier>(make_net(options.min_capacity), vo));
  }

  // Probes one round of capacities concurrently (ascending, deduped by the
  // callers) and returns their verdicts in the same order.
  auto run_round = [&](const std::vector<std::size_t>& caps) {
    std::vector<xmas::Network> candidates;
    candidates.reserve(caps.size());
    for (std::size_t cap : caps) {
      candidates.push_back(make_net(cap));
      if (!sessions[0]->probe_compatible(candidates.back())) {
        throw std::invalid_argument(
            "find_minimal_queue_size: make_net(" + std::to_string(cap) +
            ") differs from make_net(" + std::to_string(options.min_capacity) +
            ") in more than queue capacities");
      }
    }
    std::vector<smt::SatResult> verdicts(caps.size(),
                                         smt::SatResult::Unknown);
    std::vector<util::StopReason> reasons(caps.size(),
                                          util::StopReason::kNone);
    util::parallel_for_static(caps.size(), width, [&](std::size_t i) {
      const VerifyResult r =
          sessions[i % width]->probe_capacities(candidates[i]);
      verdicts[i] = r.report.result;
      // Captured per probe (a session's own stop_reason only remembers
      // its most recent check, which may be a later probe of this round).
      if (verdicts[i] == smt::SatResult::Unknown) {
        reasons[i] = r.stop_reason == util::StopReason::kNone
                         ? util::StopReason::kDegraded
                         : r.stop_reason;
      }
    });
    for (std::size_t i = 0; i < caps.size(); ++i) {
      result.probes.emplace_back(caps[i], verdicts[i]);
      if (verdicts[i] == smt::SatResult::Unknown) {
        ++result.unknown_probes;
        result.stop_reason = util::combine(result.stop_reason, reasons[i]);
      }
    }
    return verdicts;
  };

  // Ladder rounds: exponential rungs min, min + 2min, min + 2min + 4min,
  // ... clamped to max_capacity, W rungs at a time. Only a definite Unsat
  // ends the ladder; Unknown keeps climbing (sound under monotonicity,
  // possibly over-sized — unknown_probes tells the caller).
  std::size_t hi = 0;
  std::size_t last_bad = options.min_capacity - 1;
  std::size_t step = options.min_capacity;
  std::size_t cap = options.min_capacity;
  bool exhausted = false;
  while (hi == 0 && !exhausted) {
    if (deadline.expired()) {
      // Out of overall budget before a free capacity was found: stop
      // launching probes. minimal_capacity stays 0 ("none proven"),
      // which is sound, and the reason is on the result.
      result.stop_reason =
          util::combine(result.stop_reason, util::StopReason::kDeadline);
      break;
    }
    std::vector<std::size_t> rung;
    while (rung.size() < width) {
      rung.push_back(cap);
      if (cap == options.max_capacity) {
        exhausted = true;
        break;
      }
      step *= 2;
      cap = cap + step > options.max_capacity ? options.max_capacity
                                              : cap + step;
    }
    const std::vector<smt::SatResult> verdicts = run_round(rung);
    for (std::size_t i = 0; i < rung.size(); ++i) {
      if (verdicts[i] == smt::SatResult::Unsat) {
        hi = rung[i];
        break;
      }
      last_bad = rung[i];
    }
  }

  if (hi != 0) {
    // k-section narrowing of (last_bad, hi]: candidates live in
    // [lo, hi - 1]; every round either lowers hi (some midpoint proved
    // free) or raises lo past its bad midpoints, so the interval shrinks
    // every round.
    std::size_t lo = last_bad + 1;
    while (lo < hi) {
      if (deadline.expired()) {
        // hi is already a proven-free capacity; reporting it un-narrowed
        // is sound, just possibly oversized — flagged by the reason.
        result.stop_reason =
            util::combine(result.stop_reason, util::StopReason::kDeadline);
        break;
      }
      const std::size_t span = hi - lo;
      const std::size_t k = std::min<std::size_t>(width, span);
      std::vector<std::size_t> mids;
      mids.reserve(k);
      for (std::size_t j = 1; j <= k; ++j) {
        const std::size_t m = lo + span * j / (k + 1);
        if (mids.empty() || mids.back() != m) mids.push_back(m);
      }
      const std::vector<smt::SatResult> verdicts = run_round(mids);
      for (std::size_t i = 0; i < mids.size(); ++i) {
        if (verdicts[i] == smt::SatResult::Unsat) {
          hi = mids[i];
          break;
        }
        lo = mids[i] + 1;
      }
    }
    result.minimal_capacity = hi;
  }

  for (const auto& s : sessions) {
    add_stats(result.solve_stats, s->solve_stats());
    const SessionStats& st = s->stats();
    result.validations += st.validations;
    result.invariant_generations += st.invariant_generations;
    result.encodes += st.encodes;
    result.solver_checks += st.checks;
    result.analysis_ms += s->analysis_ms();
    result.diagnostics =
        std::max(result.diagnostics, s->diagnostics().size());
  }
  result.seconds = total.seconds();
  return result;
}

}  // namespace advocat::core
