#include "analysis/analyzer.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace advocat::analysis {

using xmas::ChanId;
using xmas::kNoChan;
using xmas::Network;
using xmas::Primitive;
using xmas::PrimKind;

const char* to_string(Severity severity) {
  return severity == Severity::Error ? "error" : "warning";
}

std::string Diagnostic::to_string() const {
  std::string loc;
  if (!component.empty()) loc = component;
  if (!channel.empty()) {
    if (!loc.empty()) loc += ", ";
    loc += "channel " + channel;
  }
  return util::cat(analysis::to_string(severity), "[", rule, "] ",
                   loc.empty() ? "" : loc + ": ", message);
}

bool AnalysisResult::has_errors() const { return num_errors() > 0; }

std::size_t AnalysisResult::num_errors() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Error) ++n;
  }
  return n;
}

std::size_t AnalysisResult::num_warnings() const {
  return diagnostics.size() - num_errors();
}

std::string AnalysisResult::to_string() const {
  std::string out;
  for (int pass = 0; pass < 2; ++pass) {
    const Severity want = pass == 0 ? Severity::Error : Severity::Warning;
    for (const Diagnostic& d : diagnostics) {
      if (d.severity != want) continue;
      if (!out.empty()) out += "\n";
      out += d.to_string();
    }
  }
  return out;
}

namespace {

/// True for the stateless primitives whose output transfer happens in the
/// same synchronous step as the input transfer; queues, sources, sinks and
/// automata break combinational paths.
bool combinational(PrimKind kind) {
  switch (kind) {
    case PrimKind::Function:
    case PrimKind::Fork:
    case PrimKind::Join:
    case PrimKind::Switch:
    case PrimKind::Merge:
      return true;
    default:
      return false;
  }
}

void emit(AnalysisResult& result, Severity severity, std::string rule,
          std::string component, std::string channel, std::string message) {
  result.diagnostics.push_back(Diagnostic{severity, std::move(rule),
                                          std::move(component),
                                          std::move(channel),
                                          std::move(message)});
}

/// port-connectivity + duplicate-name + parameters: the structural rules.
/// Returns true when the net is structurally sound enough for the semantic
/// passes.
bool check_structure(const Network& net, AnalysisResult& result) {
  const std::size_t before = result.diagnostics.size();
  std::unordered_set<std::string> names;
  for (const Primitive& p : net.prims()) {
    if (!names.insert(p.name).second) {
      emit(result, Severity::Error, "duplicate-name", p.name, "",
           "duplicate primitive name");
    }
    for (std::size_t port = 0; port < p.in.size(); ++port) {
      if (p.in[port] == kNoChan) {
        emit(result, Severity::Error, "port-connectivity", p.name, "",
             util::cat("in-port ", port, " unconnected"));
      }
    }
    for (std::size_t port = 0; port < p.out.size(); ++port) {
      if (p.out[port] == kNoChan) {
        emit(result, Severity::Error, "port-connectivity", p.name, "",
             util::cat("out-port ", port, " unconnected"));
      }
    }
    switch (p.kind) {
      case PrimKind::Queue:
        if (p.capacity == 0) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "queue with zero capacity");
        }
        break;
      case PrimKind::Source:
        if (p.source_colors.empty()) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "source without colors");
        }
        break;
      case PrimKind::Function:
        if (!p.func) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "function without mapping");
        }
        break;
      case PrimKind::Switch:
        if (!p.route) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "switch without routing");
        }
        break;
      case PrimKind::Automaton: {
        if (p.automaton < 0 ||
            static_cast<std::size_t>(p.automaton) >= net.automata().size()) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "bad automaton index");
          break;
        }
        const xmas::Automaton& a = net.automaton_of(p);
        if (a.states.empty()) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "automaton without states");
        }
        if (a.initial < 0 || a.initial >= a.num_states()) {
          emit(result, Severity::Error, "parameters", p.name, "",
               "bad initial state");
        }
        for (const xmas::AutTransition& t : a.transitions) {
          if (t.from < 0 || t.from >= a.num_states() || t.to < 0 ||
              t.to >= a.num_states()) {
            emit(result, Severity::Error, "parameters", p.name, "",
                 "transition with bad state: " + t.label);
          }
          if (!t.guard || !t.transform) {
            emit(result, Severity::Error, "parameters", p.name, "",
                 "transition missing guard/transform: " + t.label);
          }
        }
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t c = 0; c < net.channels().size(); ++c) {
    const xmas::Channel& ch = net.channels()[c];
    if (ch.initiator < 0 ||
        static_cast<std::size_t>(ch.initiator) >= net.num_prims() ||
        ch.target < 0 ||
        static_cast<std::size_t>(ch.target) >= net.num_prims()) {
      emit(result, Severity::Error, "port-connectivity", "", "",
           util::cat("channel ", c, ": dangling endpoint"));
    }
  }
  return result.diagnostics.size() == before;
}

/// combinational-cycle: DFS over the channel graph restricted to edges
/// through combinational primitives. Reports each back edge once, with the
/// cycle spelled out channel by channel.
void check_combinational_cycles(const Network& net, AnalysisResult& result) {
  const std::size_t n = net.num_channels();
  // adj[c] = out-channels reachable from c in the same synchronous step.
  std::vector<std::vector<ChanId>> adj(n);
  for (const Primitive& p : net.prims()) {
    if (!combinational(p.kind)) continue;
    for (ChanId in : p.in) {
      if (in == kNoChan) continue;
      for (ChanId out : p.out) {
        if (out == kNoChan) continue;
        adj[static_cast<std::size_t>(in)].push_back(out);
      }
    }
  }
  enum : char { kWhite, kGray, kBlack };
  std::vector<char> state(n, kWhite);
  std::vector<ChanId> parent(n, kNoChan);
  for (std::size_t root = 0; root < n; ++root) {
    if (state[root] != kWhite) continue;
    // (channel, next adjacency index) DFS stack.
    std::vector<std::pair<ChanId, std::size_t>> stack;
    stack.emplace_back(static_cast<ChanId>(root), 0);
    state[root] = kGray;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto& out = adj[static_cast<std::size_t>(u)];
      if (next == out.size()) {
        state[static_cast<std::size_t>(u)] = kBlack;
        stack.pop_back();
        continue;
      }
      const ChanId v = out[next++];
      if (state[static_cast<std::size_t>(v)] == kWhite) {
        state[static_cast<std::size_t>(v)] = kGray;
        parent[static_cast<std::size_t>(v)] = u;
        stack.emplace_back(v, 0);
      } else if (state[static_cast<std::size_t>(v)] == kGray) {
        // Back edge u -> v: the cycle is v ... u v, via the parent chain.
        std::vector<ChanId> cycle{v};
        for (ChanId w = u; w != v; w = parent[static_cast<std::size_t>(w)]) {
          cycle.push_back(w);
        }
        std::reverse(cycle.begin() + 1, cycle.end());
        std::string path;
        for (ChanId c : cycle) path += net.channel_name(c) + " -> ";
        path += net.channel_name(v);
        emit(result, Severity::Error, "combinational-cycle",
             net.prim(net.channel(v).target).name, net.channel_name(v),
             "combinational cycle (no queue breaks it): " + path);
      }
    }
  }
}

/// dead-channel + unreachable-sink warnings over the checked typing.
void check_liveness(const Network& net, const xmas::Typing& T,
                    AnalysisResult& result) {
  const std::size_t n = net.num_channels();
  for (std::size_t c = 0; c < n; ++c) {
    if (T.of(static_cast<ChanId>(c)).empty()) {
      result.dead_channels.push_back(static_cast<ChanId>(c));
      emit(result, Severity::Warning, "dead-channel", "",
           net.channel_name(static_cast<ChanId>(c)),
           "no color can ever appear here (T(c) = ∅)");
    }
  }

  // May-reach-a-consumer: a channel is drained at a sink, an automaton, or
  // a join token port; elsewhere its packets must be able to flow onward.
  std::vector<char> reaches(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const xmas::Channel& ch = net.channels()[c];
    const Primitive& tgt = net.prim(ch.target);
    if (tgt.kind == PrimKind::Sink || tgt.kind == PrimKind::Automaton ||
        (tgt.kind == PrimKind::Join && ch.tgt_port == 1)) {
      reaches[c] = 1;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t c = 0; c < n; ++c) {
      if (reaches[c] != 0) continue;
      const Primitive& tgt = net.prim(net.channels()[c].target);
      for (ChanId out : tgt.out) {
        if (out != kNoChan && reaches[static_cast<std::size_t>(out)] != 0) {
          reaches[c] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (reaches[c] == 0 && !T.of(static_cast<ChanId>(c)).empty()) {
      emit(result, Severity::Warning, "unreachable-sink", "",
           net.channel_name(static_cast<ChanId>(c)),
           "packets here can never reach a sink or automaton");
    }
  }
}

}  // namespace

AnalysisResult analyze(const Network& net) {
  AnalysisResult result;
  const bool wired = check_structure(net, result);
  check_combinational_cycles(net, result);
  if (!wired || result.has_errors()) return result;
  const util::Stopwatch watch;
  const xmas::Typing& T = result.typing.emplace(xmas::Typing::derive(net));
  result.typing_seconds = watch.seconds();
  // type-consistency: every result the derivation left out.
  for (const xmas::Typing::Skip& s : T.skipped()) {
    emit(result, Severity::Error, "type-consistency", net.prim(s.prim).name,
         "", s.message);
  }
  if (!T.skipped().empty()) return result;
  check_liveness(net, T, result);
  return result;
}

}  // namespace advocat::analysis
