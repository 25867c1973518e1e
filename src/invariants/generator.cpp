#include "invariants/generator.hpp"

#include <numeric>
#include <unordered_map>

#include "linalg/eliminator.hpp"
#include "smt/rows.hpp"
#include "util/stopwatch.hpp"

namespace advocat::inv {

using linalg::Rational;
using linalg::SparseRow;
using xmas::ChanId;
using xmas::ColorId;
using xmas::ColorSet;
using xmas::PrimId;
using xmas::PrimKind;
using xmas::Primitive;

namespace {

/// Minimal union-find over dense indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Flow equations of one automaton: families (0)–(3) of the header comment.
void build_automaton_rows(const xmas::Network& net, const xmas::Typing& typing,
                          const VarSpace& vars, int ai,
                          std::vector<SparseRow>& rows) {
  const xmas::Automaton& a = net.automata()[static_cast<std::size_t>(ai)];
  const Primitive& p = net.prim(net.automaton_prim(ai));

  // (0) one-hot: Σ_s A.s − 1 = 0.
  {
    SparseRow row;
    for (int s = 0; s < a.num_states(); ++s) row.add(vars.state(ai, s), 1);
    row.add_constant(-1);
    rows.push_back(std::move(row));
  }

  // (1) state balance: Σ_in κ − Σ_out κ − A.s + [s = s₀] = 0.
  for (int s = 0; s < a.num_states(); ++s) {
    SparseRow row;
    for (std::size_t t = 0; t < a.transitions.size(); ++t) {
      if (a.transitions[t].to == s) row.add(vars.kappa(ai, static_cast<int>(t)), 1);
      if (a.transitions[t].from == s) row.add(vars.kappa(ai, static_cast<int>(t)), -1);
    }
    row.add(vars.state(ai, s), -1);
    if (s == a.initial) row.add_constant(1);
    rows.push_back(std::move(row));
  }

  // Enumerate consumable tuples (i, d).
  struct InTuple {
    int port;
    ColorId d;
  };
  std::vector<InTuple> in_tuples;
  for (int i = 0; i < a.num_in; ++i) {
    for (ColorId d : typing.of(p.in[static_cast<std::size_t>(i)])) {
      in_tuples.push_back({i, d});
    }
  }

  // (2) in-channel classes: union tuples that can enable one transition.
  {
    UnionFind uf(in_tuples.size());
    std::vector<std::vector<std::size_t>> enablers(a.transitions.size());
    for (std::size_t k = 0; k < in_tuples.size(); ++k) {
      for (std::size_t t = 0; t < a.transitions.size(); ++t) {
        if (a.transitions[t].guard(in_tuples[k].port, in_tuples[k].d)) {
          enablers[t].push_back(k);
        }
      }
    }
    for (const auto& group : enablers) {
      for (std::size_t j = 1; j < group.size(); ++j) uf.unite(group[0], group[j]);
    }
    // class root -> (tuples, transitions)
    std::unordered_map<std::size_t, SparseRow> class_rows;
    for (std::size_t k = 0; k < in_tuples.size(); ++k) {
      class_rows[uf.find(k)].add(
          vars.lambda(p.in[static_cast<std::size_t>(in_tuples[k].port)], in_tuples[k].d), 1);
    }
    for (std::size_t t = 0; t < a.transitions.size(); ++t) {
      if (enablers[t].empty()) continue;  // never-firing transition: κ free
      class_rows[uf.find(enablers[t][0])].add(
          vars.kappa(ai, static_cast<int>(t)), -1);
    }
    for (auto& [root, row] : class_rows) rows.push_back(std::move(row));
    // κ of a transition no tuple can enable is identically zero.
    for (std::size_t t = 0; t < a.transitions.size(); ++t) {
      if (!enablers[t].empty()) continue;
      SparseRow row;
      row.add(vars.kappa(ai, static_cast<int>(t)), 1);
      rows.push_back(std::move(row));
    }
  }

  // (3) out-channel classes: union tuples producible by one transition.
  {
    struct OutTuple {
      int port;
      ColorId d;
    };
    std::vector<OutTuple> out_tuples;
    std::unordered_map<std::uint64_t, std::size_t> out_index;
    auto out_key = [](int port, ColorId d) {
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(port)) << 32) |
             static_cast<std::uint32_t>(d);
    };
    // productions[t] = set of out-tuple indices; bot_possible[t] = t can
    // fire without producing.
    std::vector<std::vector<std::size_t>> productions(a.transitions.size());
    std::vector<bool> bot_possible(a.transitions.size(), false);
    std::vector<bool> fires(a.transitions.size(), false);
    for (std::size_t t = 0; t < a.transitions.size(); ++t) {
      for (const auto& [port, d] : in_tuples) {
        if (!a.transitions[t].guard(port, d)) continue;
        fires[t] = true;
        auto em = a.transitions[t].transform(port, d);
        if (!em.has_value()) {
          bot_possible[t] = true;
          continue;
        }
        const std::uint64_t k = out_key(em->first, em->second);
        auto it = out_index.find(k);
        std::size_t idx;
        if (it == out_index.end()) {
          idx = out_tuples.size();
          out_tuples.push_back({em->first, em->second});
          out_index.emplace(k, idx);
        } else {
          idx = it->second;
        }
        productions[t].push_back(idx);
      }
    }
    UnionFind uf(out_tuples.size());
    for (const auto& group : productions) {
      for (std::size_t j = 1; j < group.size(); ++j) uf.unite(group[0], group[j]);
    }
    // Σ λ(class) = Σ κ(t) is only valid when every contributing transition
    // *always* produces into the class; a ⊥-capable transition breaks the
    // accounting, so its class is skipped (fewer invariants, still sound).
    std::unordered_map<std::size_t, bool> class_valid;
    std::unordered_map<std::size_t, SparseRow> class_rows;
    for (std::size_t k = 0; k < out_tuples.size(); ++k) {
      const std::size_t root = uf.find(k);
      class_valid.emplace(root, true);
      class_rows[root].add(
          vars.lambda(p.out[static_cast<std::size_t>(out_tuples[k].port)], out_tuples[k].d), 1);
    }
    for (std::size_t t = 0; t < a.transitions.size(); ++t) {
      if (!fires[t] || productions[t].empty()) continue;
      const std::size_t root = uf.find(productions[t][0]);
      if (bot_possible[t]) {
        class_valid[root] = false;
        continue;
      }
      class_rows[root].add(vars.kappa(ai, static_cast<int>(t)), -1);
    }
    for (auto& [root, row] : class_rows) {
      if (class_valid[root]) rows.push_back(std::move(row));
    }
  }
}

}  // namespace

std::vector<SparseRow> build_flow_rows(const xmas::Network& net,
                                       const xmas::Typing& typing,
                                       const VarSpace& vars) {
  std::vector<SparseRow> rows;
  for (std::size_t pi = 0; pi < net.num_prims(); ++pi) {
    const Primitive& p = net.prims()[pi];
    switch (p.kind) {
      case PrimKind::Queue: {
        // λ(in,d) − λ(out,d) − #q.d = 0 (queues start empty).
        for (ColorId d : typing.of(p.in[0])) {
          SparseRow row;
          row.add(vars.lambda(p.in[0], d), 1);
          row.add(vars.lambda(p.out[0], d), -1);
          row.add(vars.occ(static_cast<PrimId>(pi), d), -1);
          rows.push_back(std::move(row));
        }
        break;
      }
      case PrimKind::Function: {
        for (ColorId d2 : typing.of(p.out[0])) {
          SparseRow row;
          row.add(vars.lambda(p.out[0], d2), 1);
          for (ColorId d : typing.of(p.in[0])) {
            if (p.func(d) == d2) row.add(vars.lambda(p.in[0], d), -1);
          }
          rows.push_back(std::move(row));
        }
        break;
      }
      case PrimKind::Fork: {
        for (ColorId d : typing.of(p.in[0])) {
          for (int k = 0; k < 2; ++k) {
            SparseRow row;
            row.add(vars.lambda(p.in[0], d), 1);
            row.add(vars.lambda(p.out[static_cast<std::size_t>(k)], d), -1);
            rows.push_back(std::move(row));
          }
        }
        break;
      }
      case PrimKind::Join: {
        for (ColorId d : typing.of(p.in[0])) {
          SparseRow row;
          row.add(vars.lambda(p.out[0], d), 1);
          row.add(vars.lambda(p.in[0], d), -1);
          rows.push_back(std::move(row));
        }
        // Token transfers pair with data transfers one-to-one.
        SparseRow tok;
        for (ColorId d : typing.of(p.in[1])) tok.add(vars.lambda(p.in[1], d), 1);
        for (ColorId d : typing.of(p.in[0])) tok.add(vars.lambda(p.in[0], d), -1);
        rows.push_back(std::move(tok));
        break;
      }
      case PrimKind::Switch: {
        for (ColorId d : typing.of(p.in[0])) {
          SparseRow row;
          row.add(vars.lambda(p.in[0], d), 1);
          const int port = p.route(d);
          if (port >= 0 && static_cast<std::size_t>(port) < p.out.size()) {
            row.add(vars.lambda(p.out[static_cast<std::size_t>(port)], d), -1);
          }
          // Unroutable colors never transfer: λ(in,d) = 0.
          rows.push_back(std::move(row));
        }
        break;
      }
      case PrimKind::Merge: {
        for (ColorId d : typing.of(p.out[0])) {
          SparseRow row;
          row.add(vars.lambda(p.out[0], d), 1);
          for (ChanId in : p.in) {
            if (xmas::set_contains(typing.of(in), d)) {
              row.add(vars.lambda(in, d), -1);
            }
          }
          rows.push_back(std::move(row));
        }
        break;
      }
      case PrimKind::Automaton:
        build_automaton_rows(net, typing, vars, p.automaton, rows);
        break;
      case PrimKind::Source:
      case PrimKind::Sink:
        break;  // λ at sources/sinks is unconstrained
    }
  }
  return rows;
}

std::vector<std::string> InvariantSet::to_strings() const {
  std::vector<std::string> out;
  auto name = [this](std::int32_t col) { return vars->name(col); };
  for (const auto& row : equalities) out.push_back(row.to_string(name));
  for (const auto& row : inequalities) {
    std::string s = row.to_string(name);
    // SparseRow prints "... = 0"; these rows mean "... <= 0".
    s.replace(s.rfind("= 0"), 3, "<= 0");
    out.push_back(s);
  }
  return out;
}

std::vector<smt::ExprId> InvariantSet::to_smt(smt::ExprFactory& f) const {
  // Canonical theory-row shape (smt/rows.hpp): a row shared with the
  // flow-completion system hash-conses to the same expression and lands
  // on the same theory atom in the native backend.
  std::vector<smt::ExprId> out;
  auto var_of = [&](std::int32_t col) {
    return f.int_var(vars->smt_name(col));
  };
  for (const auto& row : equalities) {
    out.push_back(smt::row_expr(f, row, var_of, /*is_eq=*/true));
  }
  for (const auto& row : inequalities) {
    out.push_back(smt::row_expr(f, row, var_of, /*is_eq=*/false));
  }
  return out;
}

std::vector<smt::ExprId> flow_completion_smt(const xmas::Network& net,
                                             const xmas::Typing& typing,
                                             smt::ExprFactory& f) {
  const VarSpace vars(net, typing);
  const std::vector<SparseRow> rows = build_flow_rows(net, typing, vars);
  std::vector<smt::ExprId> out;
  auto col_var = [&](std::int32_t col) {
    if (vars.is_eliminated(col)) return f.int_var("Flow[" + std::to_string(col) + "]");
    return f.int_var(vars.smt_name(col));
  };
  // λ and κ are event counters: nonnegative.
  for (std::int32_t col = 0; col < vars.num_cols(); ++col) {
    if (vars.is_eliminated(col)) {
      out.push_back(f.ge(col_var(col), f.int_const(0)));
    }
  }
  for (const SparseRow& row : rows) {
    out.push_back(smt::row_expr(f, row, col_var, /*is_eq=*/true));
  }
  return out;
}

InvariantSet generate(const xmas::Network& net, const xmas::Typing& typing,
                      bool derive_inequalities) {
  util::Stopwatch watch;
  InvariantSet set;
  set.vars = std::make_unique<VarSpace>(net, typing);
  std::vector<SparseRow> rows = build_flow_rows(net, typing, *set.vars);
  set.rows_built = rows.size();
  const VarSpace& vars = *set.vars;
  linalg::EliminationResult res = linalg::Eliminator::eliminate(
      std::move(rows),
      [&vars](std::int32_t col) { return vars.is_eliminated(col); },
      derive_inequalities);
  set.equalities = std::move(res.equalities);
  set.inequalities = std::move(res.inequalities);
  set.row_ops = res.row_ops;
  set.seconds = watch.seconds();
  return set;
}

}  // namespace advocat::inv
