// SMT-LIB2 serialization of assertion sets (solver-independent escape
// hatch).
#pragma once

#include <string>
#include <vector>

#include "smt/expr.hpp"

namespace advocat::smt {

/// Emits declarations for every variable in `factory`, one (assert ...) per
/// element of `assertions`, and a final (check-sat).
[[nodiscard]] std::string to_smtlib(const ExprFactory& factory,
                                    const std::vector<ExprId>& assertions);

}  // namespace advocat::smt
