#include "deadlock/checker.hpp"

#include <sstream>

#include "deadlock/encoder.hpp"
#include "deadlock/varnames.hpp"
#include "smt/eval.hpp"

namespace advocat::deadlock {

std::string Report::to_string() const {
  std::ostringstream os;
  os << "verdict: "
     << (deadlock_free() ? "deadlock-free"
                         : (result == smt::SatResult::Sat ? "deadlock candidate"
                                                          : "unknown"))
     << " (" << num_definitions << " definitions)\n";
  if (result == smt::SatResult::Sat) {
    for (const auto& t : fired) os << "  fired: " << t << "\n";
    for (const auto& q : queue_contents) os << "  " << q << "\n";
    for (const auto& a : automaton_states) os << "  " << a << "\n";
  }
  return os.str();
}

void decode_witness(const xmas::Network& net, const xmas::Typing& typing,
                    const smt::ExprFactory& factory, const Encoding& enc,
                    const smt::Model& model, Report& report) {
  for (const auto& [tag, expr] : enc.disjuncts) {
    if (smt::eval_bool(factory, model, expr)) report.fired.push_back(tag);
  }
  for (xmas::PrimId qid : net.prims_of_kind(xmas::PrimKind::Queue)) {
    const xmas::Primitive& q = net.prim(qid);
    std::string line;
    for (xmas::ColorId d : typing.of(q.in[0])) {
      const std::int64_t n = model.int_value(occ_var_name(net, qid, d));
      if (n > 0) {
        if (!line.empty()) line += ", ";
        line += std::to_string(n) + " x " + net.colors().name(d);
      }
    }
    if (!line.empty()) report.queue_contents.push_back(q.name + ": " + line);
  }
  for (std::size_t ai = 0; ai < net.automata().size(); ++ai) {
    const xmas::Automaton& a = net.automata()[ai];
    for (int s = 0; s < a.num_states(); ++s) {
      if (model.int_value(state_var_name(net, static_cast<int>(ai), s)) == 1) {
        report.automaton_states.push_back(a.name + ": " + a.states[static_cast<std::size_t>(s)]);
      }
    }
  }
}

}  // namespace advocat::deadlock
