#include "smt/expr.hpp"

#include <algorithm>
#include <stdexcept>

namespace advocat::smt {

namespace {

std::uint32_t hash_node(Op op, std::int64_t value,
                        std::span<const ExprId> kids) {
  std::uint64_t h = (static_cast<std::uint64_t>(op) + 1) * 0x9e3779b97f4a7c15ull;
  h = (h ^ static_cast<std::uint64_t>(value)) * 0xbf58476d1ce4e5b9ull;
  for (ExprId k : kids) {
    h = (h ^ static_cast<std::uint32_t>(k)) * 0x100000001b3ull;
  }
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

ExprFactory::ExprFactory() : table_(256) { small_ints_.fill(kNoExpr); }

ExprId ExprFactory::make_record(Op op, std::int64_t value,
                                std::span<const ExprId> kids) {
  const auto id = static_cast<ExprId>(records_.size());
  Record r;
  r.value = value;
  r.first = static_cast<std::uint32_t>(kids_.size());
  r.count = static_cast<std::uint32_t>(kids.size());
  r.op = op;
  kids_.insert(kids_.end(), kids.begin(), kids.end());
  records_.push_back(r);
  return id;
}

void ExprFactory::grow_table() {
  std::vector<Slot> old(table_.size() * 2);
  old.swap(table_);
  const std::size_t mask = table_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNoExpr) continue;
    std::size_t i = s.hash & mask;
    while (table_[i].id != kNoExpr) i = (i + 1) & mask;
    table_[i] = s;
  }
}

ExprId ExprFactory::intern(Op op, std::int64_t value,
                           std::span<const ExprId> kids) {
  const std::uint32_t h = hash_node(op, value, kids);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  for (; table_[i].id != kNoExpr; i = (i + 1) & mask) {
    if (table_[i].hash != h) continue;
    const Record& r = records_[static_cast<std::size_t>(table_[i].id)];
    if (r.op == op && r.value == value && r.count == kids.size() &&
        std::equal(kids.begin(), kids.end(), kids_.begin() + r.first)) {
      return table_[i].id;
    }
  }
  const ExprId id = make_record(op, value, kids);
  table_[i] = Slot{h, id};
  if (2 * ++table_used_ > table_.size()) grow_table();
  return id;
}

ExprId ExprFactory::bool_const(bool v) {
  ExprId& cached = bool_consts_[v ? 1 : 0];
  if (cached == kNoExpr) cached = intern(Op::BoolConst, v ? 1 : 0, {});
  return cached;
}

ExprId ExprFactory::int_const(std::int64_t v) {
  const std::int64_t slot = v - kSmallMin;
  if (slot < 0 || slot >= static_cast<std::int64_t>(small_ints_.size())) {
    return intern(Op::IntConst, v, {});
  }
  ExprId& cached = small_ints_[static_cast<std::size_t>(slot)];
  if (cached == kNoExpr) cached = intern(Op::IntConst, v, {});
  return cached;
}

// Variables are found by name, never through the hash-cons table: a
// variable node equals no other node.
ExprId ExprFactory::declare(Op op, const std::string& name) {
  const auto [it, fresh] = var_index_.try_emplace(name, kNoExpr);
  if (!fresh) {
    if (records_[static_cast<std::size_t>(it->second)].op != op)
      throw std::logic_error("variable redeclared with other sort: " + name);
    return it->second;
  }
  try {
    it->second = make_record(op, 0, {});
  } catch (...) {
    var_index_.erase(it);
    throw;
  }
  records_.back().name = static_cast<std::uint32_t>(vars_.size());
  vars_.emplace_back(name, op == Op::BoolVar);
  return it->second;
}

ExprId ExprFactory::bool_var(const std::string& name) {
  return declare(Op::BoolVar, name);
}

ExprId ExprFactory::int_var(const std::string& name) {
  return declare(Op::IntVar, name);
}

ExprId ExprFactory::flatten(Op op, std::span<const ExprId> kids,
                            bool absorbing) {
  scratch_.clear();
  for (ExprId k : kids) {
    const Node n = node(k);
    if (n.op == Op::BoolConst) {
      if ((n.value != 0) == absorbing) return bool_const(absorbing);
      continue;  // drop the neutral constant
    }
    if (n.op == op) {
      scratch_.insert(scratch_.end(), n.kids.begin(), n.kids.end());
    } else {
      scratch_.push_back(k);
    }
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()), scratch_.end());
  if (scratch_.empty()) return bool_const(!absorbing);
  if (scratch_.size() == 1) return scratch_[0];
  return intern(op, 0, scratch_);
}

ExprId ExprFactory::and_(std::span<const ExprId> kids) {
  return flatten(Op::And, kids, false);
}

ExprId ExprFactory::or_(std::span<const ExprId> kids) {
  return flatten(Op::Or, kids, true);
}

ExprId ExprFactory::not_(ExprId e) {
  const Node n = node(e);
  if (n.op == Op::BoolConst) return bool_const(n.value == 0);
  if (n.op == Op::Not) return n.kids[0];
  const ExprId kids[] = {e};
  return intern(Op::Not, 0, kids);
}

ExprId ExprFactory::implies(ExprId a, ExprId b) {
  const Node na = node(a);
  const Node nb = node(b);
  if (na.op == Op::BoolConst) return na.value ? b : bool_const(true);
  if (nb.op == Op::BoolConst && nb.value == 1) return bool_const(true);
  if (nb.op == Op::BoolConst && nb.value == 0) return not_(a);
  const ExprId kids[] = {a, b};
  return intern(Op::Implies, 0, kids);
}

ExprId ExprFactory::iff(ExprId a, ExprId b) {
  if (a == b) return bool_const(true);
  const Node na = node(a);
  const Node nb = node(b);
  if (na.op == Op::BoolConst) return na.value ? b : not_(b);
  if (nb.op == Op::BoolConst) return nb.value ? a : not_(a);
  if (a > b) std::swap(a, b);
  const ExprId kids[] = {a, b};
  return intern(Op::Iff, 0, kids);
}

ExprId ExprFactory::eq(ExprId a, ExprId b) {
  const Node na = node(a);
  const Node nb = node(b);
  if (na.op == Op::IntConst && nb.op == Op::IntConst)
    return bool_const(na.value == nb.value);
  if (a == b) return bool_const(true);
  if (a > b) std::swap(a, b);
  const ExprId kids[] = {a, b};
  return intern(Op::Eq, 0, kids);
}

ExprId ExprFactory::le(ExprId a, ExprId b) {
  const Node na = node(a);
  const Node nb = node(b);
  if (na.op == Op::IntConst && nb.op == Op::IntConst)
    return bool_const(na.value <= nb.value);
  if (a == b) return bool_const(true);
  const ExprId kids[] = {a, b};
  return intern(Op::Le, 0, kids);
}

ExprId ExprFactory::add(std::span<const ExprId> kids) {
  scratch_.clear();
  std::int64_t acc = 0;
  for (ExprId k : kids) {
    const Node n = node(k);
    if (n.op == Op::IntConst) {
      acc += n.value;
    } else if (n.op == Op::Add) {
      for (ExprId kk : n.kids) {
        const Node nn = node(kk);
        if (nn.op == Op::IntConst) acc += nn.value;
        else scratch_.push_back(kk);
      }
    } else {
      scratch_.push_back(k);
    }
  }
  if (acc != 0 || scratch_.empty()) scratch_.push_back(int_const(acc));
  if (scratch_.size() == 1) return scratch_[0];
  std::sort(scratch_.begin(), scratch_.end());
  return intern(Op::Add, 0, scratch_);
}

ExprId ExprFactory::mul_const(std::int64_t c, ExprId e) {
  if (c == 0) return int_const(0);
  if (c == 1) return e;
  const Node n = node(e);
  if (n.op == Op::IntConst) return int_const(c * n.value);
  if (n.op == Op::MulConst) return mul_const(c * n.value, n.kids[0]);
  const ExprId kids[] = {e};
  return intern(Op::MulConst, c, kids);
}

std::string ExprFactory::to_string(ExprId id) const {
  const Node n = node(id);
  auto join_kids = [&](const char* sep) {
    std::string out;
    for (std::size_t i = 0; i < n.kids.size(); ++i) {
      if (i) out += sep;
      out += to_string(n.kids[i]);
    }
    return out;
  };
  switch (n.op) {
    case Op::BoolConst: return n.value ? "true" : "false";
    case Op::IntConst: return std::to_string(n.value);
    case Op::BoolVar:
    case Op::IntVar: return std::string(n.name);
    case Op::And: return "(" + join_kids(" & ") + ")";
    case Op::Or: return "(" + join_kids(" | ") + ")";
    case Op::Not: return "!" + to_string(n.kids[0]);
    case Op::Implies: return "(" + join_kids(" -> ") + ")";
    case Op::Iff: return "(" + join_kids(" <-> ") + ")";
    case Op::Eq: return "(" + join_kids(" = ") + ")";
    case Op::Le: return "(" + join_kids(" <= ") + ")";
    case Op::Add: return "(" + join_kids(" + ") + ")";
    case Op::MulConst:
      return std::to_string(n.value) + "*" + to_string(n.kids[0]);
  }
  return "?";
}

}  // namespace advocat::smt
