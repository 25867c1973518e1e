#include "smt/eval.hpp"

#include <stdexcept>

namespace advocat::smt {

bool eval_bool(const ExprFactory& f, const Model& m, ExprId e) {
  const Node n = f.node(e);
  switch (n.op) {
    case Op::BoolConst: return n.value != 0;
    case Op::BoolVar: return m.bool_value(std::string(n.name));
    case Op::Not: return !eval_bool(f, m, n.kids[0]);
    case Op::And:
      for (ExprId k : n.kids) {
        if (!eval_bool(f, m, k)) return false;
      }
      return true;
    case Op::Or:
      for (ExprId k : n.kids) {
        if (eval_bool(f, m, k)) return true;
      }
      return false;
    case Op::Implies:
      return !eval_bool(f, m, n.kids[0]) || eval_bool(f, m, n.kids[1]);
    case Op::Iff: return eval_bool(f, m, n.kids[0]) == eval_bool(f, m, n.kids[1]);
    case Op::Eq: return eval_int(f, m, n.kids[0]) == eval_int(f, m, n.kids[1]);
    case Op::Le: return eval_int(f, m, n.kids[0]) <= eval_int(f, m, n.kids[1]);
    default:
      throw std::logic_error("eval_bool: integer expression");
  }
}

std::int64_t eval_int(const ExprFactory& f, const Model& m, ExprId e) {
  const Node n = f.node(e);
  switch (n.op) {
    case Op::IntConst: return n.value;
    case Op::IntVar: return m.int_value(std::string(n.name));
    case Op::Add: {
      std::int64_t sum = 0;
      for (ExprId k : n.kids) sum += eval_int(f, m, k);
      return sum;
    }
    case Op::MulConst: return n.value * eval_int(f, m, n.kids[0]);
    default:
      throw std::logic_error("eval_int: boolean expression");
  }
}

}  // namespace advocat::smt
