#include "advocat/verifier.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "smt/expr.hpp"
#include "util/fault.hpp"
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
        " is not supported: each check is one sequential search (use 0 or 1)");
  }
  util::Stopwatch total;

  util::Stopwatch watch;
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
  // The analyzer's derivation is the session's typing: its time counts
  // in typing_seconds, not in analysis_ms.
  construct_typing_seconds_ = ar.typing_seconds;
  analysis_ms_ = (watch.seconds() - ar.typing_seconds) * 1000.0;
  diagnostics_ = std::move(ar.diagnostics);
  typing_ = std::move(*ar.typing);
  ++stats_.typings;

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
  result.solve_seconds = solve.seconds();
  result.solve_stats = solver_->solve_stats();
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
  // any behavioural drift that changes what flows where is caught here,
  // and so is a function that returns a route, port or color out of
  // range, which the derivation skips. A factory whose functions differ
  // *without* moving any color remains the caller's responsibility (see
  // find_minimal_queue_size).
  const xmas::Typing other_typing = xmas::Typing::derive(other);
  if (!other_typing.skipped().empty()) return false;
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

// One session, one loop: an exponential ladder min, 3min, 7min, ...
// (clamped to max_capacity) climbs until a probe is proven free, then a
// binary search narrows the gap below it. Every probe is an assumption
// flip on the same Verifier, so learned clauses carry across the whole
// run. Only a definite Unsat accepts a capacity; an Unknown probe counts
// as not proven free (sound under monotonicity, possibly over-sized —
// unknown_probes tells the caller).
QueueSizingResult find_minimal_queue_size(
    const std::function<xmas::Network(std::size_t)>& make_net,
    const QueueSizingOptions& options) {
  if (options.probe_threads > 1) {
    throw std::invalid_argument(
        "find_minimal_queue_size: QueueSizingOptions::probe_threads = " +
        std::to_string(options.probe_threads) +
        " is not supported: capacities are probed one at a time on one "
        "session (use 0 or 1)");
  }
  if (options.min_capacity == 0) {
    throw std::invalid_argument(
        "find_minimal_queue_size: min_capacity must be at least 1");
  }
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
  util::Stopwatch total;
  QueueSizingResult result;
  VerifyOptions vo = options.verify;
  vo.symbolic_capacities = true;
  Verifier session(make_net(options.min_capacity), vo);

  // Probes one capacity and records it; true when proven deadlock-free.
  // The first probe, min_capacity, reuses the session's own network.
  auto proven_free = [&](std::size_t cap) {
    std::optional<xmas::Network> built;
    if (cap != options.min_capacity) built.emplace(make_net(cap));
    const xmas::Network& candidate = built ? *built : session.network();
    if (built && !session.probe_compatible(candidate)) {
      throw std::invalid_argument(
          "find_minimal_queue_size: make_net(" + std::to_string(cap) +
          ") differs from make_net(" + std::to_string(options.min_capacity) +
          ") in more than queue capacities");
    }
    const VerifyResult r = session.probe_capacities(candidate);
    result.probes.emplace_back(cap, r.report.result);
    if (r.report.result == smt::SatResult::Unknown) {
      ++result.unknown_probes;
      result.stop_reason = util::combine(result.stop_reason, r.stop_reason);
    }
    return r.report.result == smt::SatResult::Unsat;
  };

  // Candidates for the minimum live in [lo, hi]; hi == 0 until a probe
  // proves a capacity free.
  std::size_t lo = options.min_capacity;
  std::size_t hi = 0;
  std::size_t step = options.min_capacity;
  for (std::size_t cap = options.min_capacity; hi == 0;) {
    if (proven_free(cap)) {
      hi = cap;
    } else if (cap == options.max_capacity) {
      break;
    } else {
      lo = cap + 1;
      step *= 2;
      cap = std::min(cap + step, options.max_capacity);
    }
  }
  while (hi != 0 && lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (proven_free(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.minimal_capacity = hi;

  result.solve_stats = session.solve_stats();
  const SessionStats& st = session.stats();
  result.validations = st.validations;
  result.invariant_generations = st.invariant_generations;
  result.encodes = st.encodes;
  result.solver_checks = st.checks;
  result.analysis_ms = session.analysis_ms();
  result.diagnostics = session.diagnostics().size();
  result.seconds = total.seconds();
  return result;
}

}  // namespace advocat::core
