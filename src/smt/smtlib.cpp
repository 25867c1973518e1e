#include "smt/smtlib.hpp"

#include <cctype>
#include <sstream>

namespace advocat::smt {

namespace {

// SMT-LIB symbols may not contain most punctuation; wrap anything unusual
// in |...| quoting.
std::string symbol(const std::string& name) {
  bool simple = !name.empty();
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
          c == '-')) {
      simple = false;
      break;
    }
  }
  if (simple) return name;
  return "|" + name + "|";
}

void emit(const ExprFactory& f, ExprId id, std::ostream& os) {
  const Node& n = f.node(id);
  auto emit_nary = [&](const char* op) {
    os << "(" << op;
    for (ExprId k : n.kids) {
      os << " ";
      emit(f, k, os);
    }
    os << ")";
  };
  switch (n.op) {
    case Op::BoolConst: os << (n.value ? "true" : "false"); break;
    case Op::IntConst:
      if (n.value < 0) os << "(- " << -n.value << ")";
      else os << n.value;
      break;
    case Op::BoolVar:
    case Op::IntVar: os << symbol(n.name); break;
    case Op::And: emit_nary("and"); break;
    case Op::Or: emit_nary("or"); break;
    case Op::Not: emit_nary("not"); break;
    case Op::Implies: emit_nary("=>"); break;
    case Op::Iff: emit_nary("="); break;
    case Op::Eq: emit_nary("="); break;
    case Op::Le: emit_nary("<="); break;
    case Op::Add: emit_nary("+"); break;
    case Op::MulConst:
      os << "(* ";
      if (n.value < 0) os << "(- " << -n.value << ")";
      else os << n.value;
      os << " ";
      emit(f, n.kids[0], os);
      os << ")";
      break;
  }
}

void emit_prelude(const ExprFactory& factory, std::ostream& os) {
  os << "(set-logic QF_LIA)\n";
  for (const auto& [name, is_bool] : factory.variables()) {
    os << "(declare-const " << symbol(name) << (is_bool ? " Bool" : " Int")
       << ")\n";
  }
}

void emit_assert(const ExprFactory& factory, ExprId a, std::ostream& os) {
  os << "(assert ";
  emit(factory, a, os);
  os << ")\n";
}

}  // namespace

std::string to_smtlib(const ExprFactory& factory,
                      const std::vector<ExprId>& assertions) {
  std::ostringstream os;
  emit_prelude(factory, os);
  for (ExprId a : assertions) emit_assert(factory, a, os);
  os << "(check-sat)\n";
  return os.str();
}

void Script::add(ExprId assertion) {
  commands_.push_back({Command::Kind::Assert, assertion, {}});
}

void Script::check_sat(std::vector<ExprId> assumptions) {
  commands_.push_back({Command::Kind::CheckSat, kNoExpr,
                       std::move(assumptions)});
  ++num_checks_;
}

std::string Script::to_smtlib(const ExprFactory& factory) const {
  std::ostringstream os;
  emit_prelude(factory, os);
  for (const Command& c : commands_) {
    switch (c.kind) {
      case Command::Kind::Assert:
        emit_assert(factory, c.expr, os);
        break;
      case Command::Kind::CheckSat:
        if (c.assumptions.empty()) {
          os << "(check-sat)\n";
        } else {
          os << "(push 1)\n";
          for (ExprId a : c.assumptions) emit_assert(factory, a, os);
          os << "(check-sat)\n(pop 1)\n";
        }
        break;
    }
  }
  return os.str();
}

std::vector<SatResult> Script::replay(Solver& solver,
                                      unsigned timeout_ms) const {
  std::vector<SatResult> verdicts;
  for (const Command& c : commands_) {
    switch (c.kind) {
      case Command::Kind::Assert: solver.add(c.expr); break;
      case Command::Kind::CheckSat:
        verdicts.push_back(solver.check_assuming(c.assumptions, timeout_ms));
        break;
    }
  }
  return verdicts;
}

namespace {

class RecordingSolver final : public Solver {
 public:
  RecordingSolver(std::unique_ptr<Solver> inner, Script& script)
      : inner_(std::move(inner)), script_(script) {}

  void add(ExprId assertion) override {
    script_.add(assertion);
    inner_->add(assertion);
  }

  void set_threads(unsigned n) override { inner_->set_threads(n); }

  void set_deterministic(bool on) override { inner_->set_deterministic(on); }

  void set_proof_sink(ProofSink* sink) override {
    inner_->set_proof_sink(sink);
  }

  void set_budget(const util::ResourceBudget& budget) override {
    inner_->set_budget(budget);
  }

  void cancel() override { inner_->cancel(); }

  [[nodiscard]] const SolveStats& solve_stats() const override {
    return inner_->solve_stats();
  }

 protected:
  SatResult do_check(const std::vector<ExprId>& assumptions,
                     unsigned timeout_ms) override {
    script_.check_sat(assumptions);
    const SatResult r = inner_->check_assuming(assumptions, timeout_ms);
    if (r == SatResult::Sat) store_model(inner_->model());
    return r;
  }

 private:
  std::unique_ptr<Solver> inner_;
  Script& script_;
};

}  // namespace

std::unique_ptr<Solver> make_recording_solver(std::unique_ptr<Solver> inner,
                                              Script& script) {
  return std::make_unique<RecordingSolver>(std::move(inner), script);
}

}  // namespace advocat::smt
