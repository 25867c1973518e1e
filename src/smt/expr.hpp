// Hash-consed expression AST for the SMT encodings.
//
// The deadlock detector builds boolean combinations of linear integer
// constraints. We keep our own small AST instead of building Z3 terms
// directly so that (a) encodings can be unit-tested and printed as SMT-LIB2
// without a solver, and (b) the solver backend stays swappable.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace advocat::smt {

using ExprId = std::int32_t;
inline constexpr ExprId kNoExpr = -1;

enum class Op : std::uint8_t {
  BoolConst,  // value: 0/1
  IntConst,   // value
  BoolVar,    // name
  IntVar,     // name
  And,        // kids...
  Or,         // kids...
  Not,        // kid
  Implies,    // kid0 -> kid1
  Eq,         // kid0 == kid1 (int)
  Le,         // kid0 <= kid1 (int)
  Add,        // sum of kids
  MulConst,   // value * kid0
  Iff,        // kid0 <-> kid1 (bool)
};

/// Read-only view of one node, returned by value from ExprFactory::node.
/// `kids` points into the factory's shared kid pool and `name` into its
/// variable table, so both are invalidated by the next call that *creates*
/// a node (a builder whose node is not in the table yet, or a first
/// declaration of a variable). A call that finds its node — every
/// hash-cons hit, every redeclaration — invalidates nothing. Copy what you
/// need before building.
struct Node {
  Op op;
  std::int64_t value = 0;
  std::span<const ExprId> kids;
  std::string_view name;  // variables only
};

/// Arena of hash-consed nodes. All ExprIds are relative to one factory.
///
/// Layout: one flat record per node ({op, value, first kid, kid count,
/// name index}), the kids of every node in one shared pool, and variable
/// names in `variables()`, which a variable's name index points into.
/// Composite nodes and constants are hash-consed through an
/// open-addressing table of (hash, id) slots keyed by (op, value, kids),
/// hashed straight from the caller's kids, so a hit allocates nothing;
/// variables are found by name. Ids are dense and assigned in creation
/// order, and never change.
class ExprFactory {
 public:
  ExprFactory();

  ExprId bool_const(bool v);
  ExprId int_const(std::int64_t v);
  /// Throws std::logic_error when `name` is already an Int variable.
  ExprId bool_var(const std::string& name);
  /// Throws std::logic_error when `name` is already a Bool variable.
  ExprId int_var(const std::string& name);

  /// Flattens nested Ands, drops `true`, folds to `false` on any `false`.
  ExprId and_(std::span<const ExprId> kids);
  ExprId and_(std::initializer_list<ExprId> kids) { return and_(std::span(kids)); }
  /// Flattens nested Ors, drops `false`, folds to `true` on any `true`.
  ExprId or_(std::span<const ExprId> kids);
  ExprId or_(std::initializer_list<ExprId> kids) { return or_(std::span(kids)); }
  ExprId not_(ExprId e);
  ExprId implies(ExprId a, ExprId b);
  ExprId iff(ExprId a, ExprId b);
  ExprId eq(ExprId a, ExprId b);
  ExprId le(ExprId a, ExprId b);
  ExprId ge(ExprId a, ExprId b) { return le(b, a); }
  ExprId add(std::span<const ExprId> kids);
  ExprId add(std::initializer_list<ExprId> kids) { return add(std::span(kids)); }
  ExprId mul_const(std::int64_t c, ExprId e);

  /// The node's view; see Node for how long its spans stay valid.
  [[nodiscard]] Node node(ExprId id) const {
    const Record& r = records_.at(static_cast<std::size_t>(id));
    Node n{r.op, r.value, {kids_.data() + r.first, r.count}, {}};
    if (r.op == Op::BoolVar || r.op == Op::IntVar) n.name = vars_[r.name].first;
    return n;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// All declared variables in creation order (name, is_bool).
  [[nodiscard]] const std::vector<std::pair<std::string, bool>>& variables() const {
    return vars_;
  }

  /// Pretty-printer for tests and debugging (infix, not SMT-LIB).
  [[nodiscard]] std::string to_string(ExprId id) const;

 private:
  struct Record {
    std::int64_t value = 0;
    std::uint32_t first = 0;  // into kids_
    std::uint32_t count = 0;
    std::uint32_t name = 0;   // into vars_, variables only
    Op op = Op::BoolConst;
  };
  struct Slot {
    std::uint32_t hash = 0;
    ExprId id = kNoExpr;  // kNoExpr: empty
  };
  /// Integer constants in [kSmallMin, kSmallMin + size) skip the table.
  static constexpr std::int64_t kSmallMin = -128;

  /// The id of (op, value, kids), created when absent. `kids` must not
  /// point into kids_.
  ExprId intern(Op op, std::int64_t value, std::span<const ExprId> kids);
  ExprId declare(Op op, const std::string& name);
  ExprId make_record(Op op, std::int64_t value, std::span<const ExprId> kids);
  void grow_table();
  /// and_/or_: flattens `kids` into scratch_ (sorted, duplicate-free);
  /// returns `absorbing` when a kid is that constant, else kNoExpr.
  ExprId flatten(Op op, std::span<const ExprId> kids, bool absorbing);

  std::vector<Record> records_;
  std::vector<ExprId> kids_;
  std::vector<Slot> table_;  // power-of-two size, at most half full
  std::size_t table_used_ = 0;
  std::unordered_map<std::string, ExprId> var_index_;
  std::vector<std::pair<std::string, bool>> vars_;
  std::array<ExprId, 2> bool_consts_{kNoExpr, kNoExpr};
  std::array<ExprId, 384> small_ints_;
  std::vector<ExprId> scratch_;  // and_/or_/add flattening
};

}  // namespace advocat::smt
