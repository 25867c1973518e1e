// Backend-independent pieces of the solver interface: the Model accessors,
// the shared check()/model() plumbing, and the runtime backend dispatch.
#include "smt/solver.hpp"

#include <stdexcept>

#include "smt/native_solver.hpp"

namespace advocat::smt {

std::int64_t Model::int_value(const std::string& name) const {
  auto it = ints_.find(name);
  return it == ints_.end() ? 0 : it->second;
}

bool Model::bool_value(const std::string& name) const {
  auto it = bools_.find(name);
  return it != bools_.end() && it->second;
}

SatResult Solver::check() {
  static const std::vector<ExprId> kNoAssumptions;
  return check_assuming(kNoAssumptions);
}

SatResult Solver::check_assuming(const std::vector<ExprId>& assumptions) {
  ++num_checks_;
  // Re-arm the one-shot cancellation flag: a cancel() that landed after
  // the previous check returned must not poison this one.
  cancel_.store(false, std::memory_order_relaxed);
  return do_check(assumptions);
}

const Model& Solver::model() const {
  if (!has_model_) {
    throw std::logic_error("Solver::model: no check has returned Sat yet");
  }
  return model_;
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Auto: return "auto";
    case Backend::Native: return "native";
    case Backend::Z3: return "z3";
  }
  return "?";
}

bool backend_available(Backend b) {
  switch (b) {
    case Backend::Auto:
    case Backend::Native:
      return true;
    case Backend::Z3:
#ifdef ADVOCAT_HAVE_Z3
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::unique_ptr<Solver> make_solver(const ExprFactory& factory,
                                    Backend backend) {
  switch (backend) {
    case Backend::Native: return make_native_solver(factory);
    case Backend::Z3: return make_z3_solver(factory);
    case Backend::Auto:
      return backend_available(Backend::Z3) ? make_z3_solver(factory)
                                            : make_native_solver(factory);
  }
  throw std::runtime_error("make_solver: unknown backend");
}

#ifndef ADVOCAT_HAVE_Z3
std::unique_ptr<Solver> make_z3_solver(const ExprFactory&) {
  throw std::runtime_error(
      "advocat was built without Z3 support (ADVOCAT_WITH_Z3=OFF or libz3 "
      "not found); use Backend::Native or Backend::Auto");
}
#endif

}  // namespace advocat::smt
