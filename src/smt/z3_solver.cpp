// Z3 backend. The only translation unit that includes z3++.h.
#include <z3++.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "smt/solver.hpp"
#include "util/budget.hpp"

namespace advocat::smt {

namespace {

class Z3Solver final : public Solver {
 public:
  explicit Z3Solver(const ExprFactory& factory)
      : factory_(factory), solver_(ctx_) {}

  void add(ExprId assertion) override { solver_.add(translate(assertion)); }

  /// Asynchronous cancellation: raises the base flag (for the StopReason
  /// mapping) and interrupts the Z3 context, which aborts the in-flight
  /// check at its next internal poll. Z3 clears the interrupt at the start
  /// of the next query, matching the one-shot contract.
  void cancel() override {
    Solver::cancel();
    cancel_seen_.store(true, std::memory_order_relaxed);
    try {
      ctx_.interrupt();
    } catch (const z3::exception&) {
      // Nothing in flight to interrupt; the flag alone is enough.
    }
  }

 protected:
  SatResult do_check(const std::vector<ExprId>& assumptions) override {
    cancel_seen_.store(false, std::memory_order_relaxed);
    // Z3 parameters persist on the solver object, so a limit set for one
    // check of the session must be cleared for the next (0 = no limit is
    // Z3's UINT_MAX default). The budget's deadline maps onto Z3's
    // timeout, and the discrete ceilings map best-effort onto Z3's
    // abstract rlimit / max_memory — both backends then degrade through
    // the same StopReason taxonomy even though Z3's counters are not
    // exactly ours.
    const util::ResourceBudget& b = budget();
    z3::params p(ctx_);
    p.set("timeout", b.deadline_ms > 0 ? b.deadline_ms : 4294967295u);
    // rlimit: Z3's abstract resource counter ticks roughly per
    // propagation; a conflict costs orders of magnitude more. Scale the
    // conflict/decision ceilings accordingly and take the tightest.
    std::uint64_t rlimit = 0;
    auto tighten = [&rlimit](std::uint64_t v) {
      if (v != 0 && (rlimit == 0 || v < rlimit)) rlimit = v;
    };
    tighten(b.max_conflicts == 0 ? 0 : b.max_conflicts * 1000);
    tighten(b.max_decisions == 0 ? 0 : b.max_decisions * 1000);
    tighten(b.max_propagations);
    p.set("rlimit", static_cast<unsigned>(
                        std::min<std::uint64_t>(rlimit, 4294967295u)));
    if (b.max_memory_bytes != 0) {
      const std::uint64_t mb = std::max<std::uint64_t>(
          1, b.max_memory_bytes >> 20);
      p.set("max_memory", static_cast<unsigned>(
                              std::min<std::uint64_t>(mb, 4294967295u)));
    }
    solver_.set(p);

    z3::check_result r;
    if (assumptions.empty()) {
      r = solver_.check();
    } else {
      // z3::solver::check(expr_vector) treats the vector as assumptions:
      // they hold for this call only, exactly the Solver contract.
      z3::expr_vector av(ctx_);
      for (ExprId a : assumptions) av.push_back(translate(a));
      r = solver_.check(av);
    }
    import_statistics();
    switch (r) {
      case z3::sat: {
        extract_model();
        mutable_stats().stop_reason = util::StopReason::kNone;
        return SatResult::Sat;
      }
      case z3::unsat:
        mutable_stats().stop_reason = util::StopReason::kNone;
        if (proof_sink() != nullptr) {
          // The Z3 backend produces no advocat-checkable refutation; the
          // certificate is an attestation record — the checker accepts it
          // as such, and downstream tooling can tell the two modes apart.
          Certificate cert;
          cert.mode = "attested";
          cert.complete = false;
          cert.reason = "z3 backend: verdict attested, not replayable";
          cert.text = "advocat-proof 3\nmode attested z3\nqed\n";
          cert.proof_bytes = cert.text.size();
          proof_sink()->on_unsat_certificate(cert);
        }
        return SatResult::Unsat;
      default:
        mutable_stats().stop_reason = map_unknown_reason();
        return SatResult::Unknown;
    }
  }

 private:
  /// Classifies an Unknown via z3::solver::reason_unknown() so both
  /// backends degrade through the same StopReason taxonomy. Z3's strings
  /// vary across versions ("timeout", "canceled", "max. resource limit
  /// exceeded", "max. memory exceeded", "(incomplete ...)"), so the match
  /// is substring-based, with our own cancel flag disambiguating
  /// "canceled" (which Z3 also uses for timeouts).
  util::StopReason map_unknown_reason() {
    std::string why;
    try {
      why = solver_.reason_unknown();
    } catch (const z3::exception&) {
      // fall through to the generic mapping
    }
    for (char& c : why) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const auto has = [&why](const char* s) {
      return why.find(s) != std::string::npos;
    };
    if (cancel_seen_.load(std::memory_order_relaxed) &&
        (has("cancel") || has("interrupt") || why.empty())) {
      return util::StopReason::kCancelled;
    }
    if (has("memory")) return util::StopReason::kMemoryCeiling;
    if (has("resource") || has("rlimit")) {
      // Which ceiling produced the rlimit is our own bookkeeping: report
      // the tightest field the user actually set.
      const util::ResourceBudget& b = budget();
      if (b.max_conflicts != 0) return util::StopReason::kConflictBudget;
      if (b.max_decisions != 0) return util::StopReason::kDecisionBudget;
      if (b.max_propagations != 0) {
        return util::StopReason::kPropagationBudget;
      }
      return util::StopReason::kConflictBudget;
    }
    if (has("timeout") || has("cancel")) {
      return util::StopReason::kDeadline;
    }
    if (budget().deadline_ms != 0 && why.empty()) {
      // Old libz3 builds report an empty reason for a timed-out check.
      return util::StopReason::kDeadline;
    }
    return util::StopReason::kDegraded;
  }

  z3::expr translate(ExprId id) {
    auto it = cache_.find(id);
    if (it != cache_.end()) return it->second;
    const Node n = factory_.node(id);
    auto kid = [&](std::size_t i) { return translate(n.kids[i]); };
    z3::expr result(ctx_);
    switch (n.op) {
      case Op::BoolConst: result = ctx_.bool_val(n.value != 0); break;
      case Op::IntConst: result = ctx_.int_val(static_cast<std::int64_t>(n.value)); break;
      case Op::BoolVar: result = ctx_.bool_const(std::string(n.name).c_str()); break;
      case Op::IntVar: result = ctx_.int_const(std::string(n.name).c_str()); break;
      case Op::Not: result = !kid(0); break;
      case Op::Implies: result = z3::implies(kid(0), kid(1)); break;
      case Op::Iff: result = kid(0) == kid(1); break;
      case Op::Eq: result = kid(0) == kid(1); break;
      case Op::Le: result = kid(0) <= kid(1); break;
      case Op::MulConst:
        result = ctx_.int_val(static_cast<std::int64_t>(n.value)) * kid(0);
        break;
      case Op::And: {
        z3::expr_vector v(ctx_);
        for (std::size_t i = 0; i < n.kids.size(); ++i) v.push_back(kid(i));
        result = z3::mk_and(v);
        break;
      }
      case Op::Or: {
        z3::expr_vector v(ctx_);
        for (std::size_t i = 0; i < n.kids.size(); ++i) v.push_back(kid(i));
        result = z3::mk_or(v);
        break;
      }
      case Op::Add: {
        z3::expr_vector v(ctx_);
        for (std::size_t i = 0; i < n.kids.size(); ++i) v.push_back(kid(i));
        result = z3::sum(v);
        break;
      }
    }
    cache_.emplace(id, result);
    return result;
  }

  // Best-effort mapping of libz3's per-solver statistics onto SolveStats.
  // Z3 reports counters for the engines a check actually used (the key
  // names differ between the SAT and SMT cores), and the values already
  // accumulate over the solver object's lifetime, so they are assigned —
  // not added — to keep the session-cumulative contract. Learned-clause
  // counts are not exposed through the stable API and stay 0.
  void import_statistics() {
    try {
      const z3::stats st = solver_.statistics();
      std::uint64_t conflicts = 0, decisions = 0, propagations = 0,
                    restarts = 0;
      for (unsigned i = 0; i < st.size(); ++i) {
        if (!st.is_uint(i)) continue;
        const std::string key = st.key(i);
        const std::uint64_t v = st.uint_value(i);
        if (key == "conflicts" || key == "sat conflicts") {
          conflicts += v;
        } else if (key == "decisions" || key == "sat decisions") {
          decisions += v;
        } else if (key == "propagations" || key == "sat propagations 2ary" ||
                   key == "sat propagations nary") {
          propagations += v;  // the SAT core splits binary/n-ary counters
        } else if (key == "restarts" || key == "sat restarts") {
          restarts += v;
        }
      }
      // Z3's counters already accumulate over the solver's lifetime, so
      // each snapshot replaces the last (monotone via max in case an
      // engine resets its block).
      SolveStats& out = mutable_stats();
      out.conflicts = std::max(out.conflicts, conflicts);
      out.decisions = std::max(out.decisions, decisions);
      out.propagations = std::max(out.propagations, propagations);
      out.restarts = std::max(out.restarts, restarts);
    } catch (const z3::exception&) {
      // Statistics are diagnostics; never let them fail a check.
    }
  }

  void extract_model() {
    Model out;
    z3::model m = solver_.get_model();
    for (const auto& [name, is_bool] : factory_.variables()) {
      if (is_bool) {
        z3::expr v = m.eval(ctx_.bool_const(name.c_str()), true);
        out.set_bool(name, v.is_true());
      } else {
        z3::expr v = m.eval(ctx_.int_const(name.c_str()), true);
        std::int64_t value = 0;
        if (v.is_numeral_i64(value)) out.set_int(name, value);
      }
    }
    store_model(std::move(out));
  }

  const ExprFactory& factory_;
  z3::context ctx_;
  z3::solver solver_;
  // Whether cancel() fired during the in-flight check — distinguishes a
  // user interrupt from a timeout (Z3 reports both as "canceled").
  std::atomic<bool> cancel_seen_{false};
  // Translation cache. z3::expr handles are owned by ctx_, not by the
  // solver's assertion stack, so cached terms stay valid across checks.
  std::unordered_map<ExprId, z3::expr> cache_;
};

}  // namespace

std::unique_ptr<Solver> make_z3_solver(const ExprFactory& factory) {
  return std::make_unique<Z3Solver>(factory);
}

}  // namespace advocat::smt
