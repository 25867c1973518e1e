#include "smt/smtlib.hpp"

#include <cctype>
#include <sstream>
#include <string_view>

namespace advocat::smt {

namespace {

// SMT-LIB symbols may not contain most punctuation; wrap anything unusual
// in |...| quoting.
std::string symbol(std::string_view name) {
  bool simple = !name.empty();
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
          c == '-')) {
      simple = false;
      break;
    }
  }
  std::string out;
  if (!simple) out += '|';
  out += name;
  if (!simple) out += '|';
  return out;
}

void emit(const ExprFactory& f, ExprId id, std::ostream& os) {
  const Node n = f.node(id);
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

}  // namespace

std::string to_smtlib(const ExprFactory& factory,
                      const std::vector<ExprId>& assertions) {
  std::ostringstream os;
  os << "(set-logic QF_LIA)\n";
  for (const auto& [name, is_bool] : factory.variables()) {
    os << "(declare-const " << symbol(name) << (is_bool ? " Bool" : " Int")
       << ")\n";
  }
  for (ExprId a : assertions) {
    os << "(assert ";
    emit(factory, a, os);
    os << ")\n";
  }
  os << "(check-sat)\n";
  return os.str();
}

}  // namespace advocat::smt
