#include "deadlock/witness.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "deadlock/varnames.hpp"
#include "sim/state_set.hpp"
#include "util/stopwatch.hpp"

namespace advocat::deadlock {

namespace {

using xmas::ColorId;
using xmas::PrimId;
using xmas::PrimKind;

/// A parsed fired-disjunct tag (see Encoder::encode's tag construction).
struct Claim {
  enum class Kind { SourceBlocked, PacketStuck, Dead, Unknown };
  Kind kind = Kind::Unknown;
  std::string tag;
  PrimId source = -1;      ///< SourceBlocked
  int queue_ordinal = -1;  ///< PacketStuck
  int automaton = -1;      ///< Dead
};

Claim parse_tag(const sim::Simulator& sim, const std::string& tag) {
  const xmas::Network& net = sim.net();
  Claim c;
  c.tag = tag;
  const auto colon = tag.find(':');
  if (colon == std::string::npos) return c;
  const std::string kind = tag.substr(0, colon);
  const std::string name = tag.substr(colon + 1);
  if (kind == "source_blocked") {
    for (PrimId s : net.prims_of_kind(PrimKind::Source)) {
      if (net.prim(s).name == name) {
        c.kind = Claim::Kind::SourceBlocked;
        c.source = s;
        return c;
      }
    }
  } else if (kind == "packet_stuck") {
    for (PrimId q : net.prims_of_kind(PrimKind::Queue)) {
      if (net.prim(q).name == name) {
        c.kind = Claim::Kind::PacketStuck;
        c.queue_ordinal = sim.ordinal_of(q);
        return c;
      }
    }
  } else if (kind == "dead") {
    for (std::size_t ai = 0; ai < net.automata().size(); ++ai) {
      if (net.automata()[ai].name == name) {
        c.kind = Claim::Kind::Dead;
        c.automaton = static_cast<int>(ai);
        return c;
      }
    }
  }
  return c;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out;
}

}  // namespace

const char* to_string(ClaimStatus s) {
  switch (s) {
    case ClaimStatus::Confirmed:
      return "confirmed";
    case ClaimStatus::Refuted:
      return "refuted";
    case ClaimStatus::Inconclusive:
      return "inconclusive";
  }
  return "?";
}

namespace {

/// The replay behind replay_claims, on a caller's enumerator (its memo
/// tables carry over from one replay to the next). With
/// `stop_at_refutation` the search ends at the first refuted claim; the
/// claims not refuted by then are Inconclusive. The minimisation probes use
/// it: a probe counts only when every claim is confirmed.
std::vector<WitnessClaim> replay(const sim::Simulator& sim,
                                 sim::Successors& successors,
                                 const sim::State& state,
                                 const std::vector<Claim>& claims,
                                 std::size_t max_states,
                                 bool stop_at_refutation,
                                 std::size_t* states_explored,
                                 bool* exhaustive) {
  const xmas::Network& net = sim.net();
  // The claims each event can bear on, by initiator, popped queue ordinal
  // and moved automaton.
  std::vector<std::vector<std::size_t>> by_source(net.num_prims());
  std::vector<std::vector<std::size_t>> by_queue(sim.num_queues());
  std::vector<std::vector<std::size_t>> by_automaton(net.automata().size());
  // Per-claim refutation evidence gathered during the sweep.
  std::vector<std::string> refuted_by(claims.size());
  // PacketStuck: the colors stored at the witness state, minus every color
  // a reachable event pops from that queue. A survivor is a stuck packet.
  std::vector<std::set<ColorId>> stuck(claims.size());
  std::size_t refuted = 0;
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const Claim& c = claims[i];
    switch (c.kind) {
      case Claim::Kind::SourceBlocked:
        by_source[static_cast<std::size_t>(c.source)].push_back(i);
        break;
      case Claim::Kind::PacketStuck: {
        const auto q = static_cast<std::size_t>(c.queue_ordinal);
        by_queue[q].push_back(i);
        stuck[i].insert(state.queues[q].begin(), state.queues[q].end());
        refuted += stuck[i].empty();
        break;
      }
      case Claim::Kind::Dead:
        by_automaton[static_cast<std::size_t>(c.automaton)].push_back(i);
        break;
      case Claim::Kind::Unknown:
        break;
    }
  }

  // Visited states in discovery order; expanding them by index is the BFS.
  sim::StateSet visited;
  std::vector<std::uint8_t> packed;
  sim.pack(state, packed);
  visited.insert(packed);
  bool truncated = false;
  bool stopped = false;
  std::size_t explored = 0;
  for (std::size_t at = 0; at < visited.size(); ++at) {
    if (stop_at_refutation && refuted > 0) {
      stopped = true;
      break;
    }
    ++explored;
    successors.for_each(visited[at], [&](const sim::Step& e) {
      for (const std::size_t i : by_source[static_cast<std::size_t>(e.initiator)]) {
        if (refuted_by[i].empty()) {
          refuted_by[i] = "reachable injection: " + sim.label(e.initiator, e.color);
          ++refuted;
        }
      }
      for (const auto& [qo, pos] : e.effects.pops) {
        for (const std::size_t i : by_queue[static_cast<std::size_t>(qo)]) {
          if (!stuck[i].empty()) {
            stuck[i].erase(successors.stored(qo, pos));
            refuted += stuck[i].empty();
          }
        }
      }
      for (const auto& [ai, to] : e.effects.moves) {
        (void)to;  // a self-loop transition still fires
        for (const std::size_t i : by_automaton[static_cast<std::size_t>(ai)]) {
          if (refuted_by[i].empty()) {
            refuted_by[i] = "reachable transition: " + sim.label(e.initiator, e.color);
            ++refuted;
          }
        }
      }
      if (visited.size() < max_states) {
        visited.insert(e.next);
      } else if (!truncated && !visited.contains(e.next)) {
        truncated = true;
      }
    });
  }
  if (states_explored != nullptr) *states_explored = explored;
  if (exhaustive != nullptr) *exhaustive = !truncated && !stopped;

  const char* unfinished =
      stopped ? "replay stopped at the first refutation" : "state budget exhausted";
  std::vector<WitnessClaim> out;
  out.reserve(claims.size());
  for (std::size_t i = 0; i < claims.size(); ++i) {
    WitnessClaim w;
    w.tag = claims[i].tag;
    switch (claims[i].kind) {
      case Claim::Kind::SourceBlocked:
      case Claim::Kind::Dead:
        if (!refuted_by[i].empty()) {
          w.status = ClaimStatus::Refuted;
          w.note = refuted_by[i];
        } else if (truncated || stopped) {
          w.status = ClaimStatus::Inconclusive;
          w.note = unfinished;
        } else {
          w.status = ClaimStatus::Confirmed;
        }
        break;
      case Claim::Kind::PacketStuck:
        if (stuck[i].empty()) {
          w.status = ClaimStatus::Refuted;
          w.note = "every stored color has a reachable pop";
        } else if (truncated || stopped) {
          w.status = ClaimStatus::Inconclusive;
          w.note = unfinished;
        } else {
          // A color no reachable event pops: stuck under every scheduler.
          w.status = ClaimStatus::Confirmed;
          w.note = "stuck color: " + net.colors().name(*stuck[i].begin());
        }
        break;
      case Claim::Kind::Unknown:
        w.status = ClaimStatus::Inconclusive;
        w.note = "unrecognized claim tag";
        break;
    }
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<Claim> parse_tags(const sim::Simulator& sim,
                              const std::vector<std::string>& tags) {
  std::vector<Claim> claims;
  claims.reserve(tags.size());
  for (const std::string& t : tags) claims.push_back(parse_tag(sim, t));
  return claims;
}

}  // namespace

std::vector<WitnessClaim> replay_claims(const xmas::Network& net,
                                        const sim::State& state,
                                        const std::vector<std::string>& tags,
                                        std::size_t max_states,
                                        std::size_t* states_explored,
                                        bool* exhaustive) {
  const sim::Simulator sim(net);
  sim::Successors successors(sim);
  return replay(sim, successors, state, parse_tags(sim, tags), max_states,
                /*stop_at_refutation=*/false, states_explored, exhaustive);
}

namespace {

bool all_confirmed(const std::vector<WitnessClaim>& claims) {
  if (claims.empty()) return false;
  return std::all_of(claims.begin(), claims.end(), [](const WitnessClaim& c) {
    return c.status == ClaimStatus::Confirmed;
  });
}

/// Claims still applicable to `state`: packet_stuck claims for queues that
/// are now empty make no assertion and are dropped.
std::vector<Claim> applicable(const sim::State& state,
                              const std::vector<Claim>& claims) {
  std::vector<Claim> out;
  for (const Claim& c : claims) {
    if (c.kind == Claim::Kind::PacketStuck &&
        state.queues[static_cast<std::size_t>(c.queue_ordinal)].empty()) {
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

Witness build_witness(const xmas::Network& net, const xmas::Typing& typing,
                      const smt::Model& model,
                      const std::vector<std::string>& fired,
                      const WitnessOptions& options) {
  const util::Stopwatch watch;
  Witness w;
  const sim::Simulator sim(net);

  // ---- decode: model -> sim::State, with consistency checks.
  w.state.queues.resize(sim.num_queues());
  w.consistent = true;
  for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
    const PrimId qid = sim.queue_prim(static_cast<int>(qi));
    const xmas::Primitive& q = net.prim(qid);
    std::size_t total = 0;
    for (ColorId d : typing.of(q.in[0])) {
      const std::int64_t n = model.int_value(occ_var_name(net, qid, d));
      if (n < 0) {
        w.consistent = false;
        w.inconsistencies.push_back(q.name + ": negative occupancy of " +
                                    net.colors().name(d));
        continue;
      }
      total += static_cast<std::size_t>(n);
      // The model constrains the occupancy multiset, not the order; any
      // linearization is faithful to the counts-based encoding (bag
      // queues consume in any order, and the block/idle equations never
      // inspect FIFO positions).
      for (std::int64_t k = 0; k < n; ++k) w.state.queues[qi].push_back(d);
    }
    if (total > q.capacity) {
      w.consistent = false;
      w.inconsistencies.push_back(q.name + ": occupancy " +
                                  std::to_string(total) + " > capacity " +
                                  std::to_string(q.capacity));
    }
  }
  for (std::size_t ai = 0; ai < net.automata().size(); ++ai) {
    const xmas::Automaton& a = net.automata()[ai];
    int active = -1;
    int count = 0;
    for (int s = 0; s < a.num_states(); ++s) {
      if (model.int_value(state_var_name(net, static_cast<int>(ai), s)) == 1) {
        active = s;
        ++count;
      }
    }
    if (count != 1) {
      w.consistent = false;
      w.inconsistencies.push_back(a.name + ": " + std::to_string(count) +
                                  " active states");
      active = active < 0 ? a.initial : active;
    }
    w.state.aut_states.push_back(active);
  }
  w.state_text = sim.describe(w.state);
  if (!w.consistent) return w;

  // ---- replay: verify every fired claim from the decoded state.
  // One enumerator serves the replay and every minimization probe.
  sim::Successors successors(sim);
  std::vector<Claim> claims = applicable(w.state, parse_tags(sim, fired));
  w.claims = replay(sim, successors, w.state, claims, options.max_states,
                    /*stop_at_refutation=*/false, &w.states_explored,
                    &w.exhaustive);
  w.replayed = true;
  w.blocked = all_confirmed(w.claims);
  if (!w.blocked) {
    w.replay_seconds = watch.seconds();
    return w;
  }

  // ---- minimize: greedily empty queues whose contents the blockage does
  // not need. Passes repeat until none can be removed, so the final set is
  // inclusion-minimal: every single-queue removal was re-replayed against
  // the final state and broke a claim. A probe's verdicts count only when
  // every claim is confirmed, so its replay stops at the first refutation.
  bool removed = true;
  while (removed) {
    removed = false;
    for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
      if (w.state.queues[qi].empty()) continue;
      sim::State probe = w.state;
      probe.queues[qi].clear();
      std::vector<Claim> probe_claims = applicable(probe, claims);
      if (probe_claims.empty()) continue;  // nothing left to claim: essential
      bool probe_exhaustive = false;
      std::size_t probe_states = 0;
      const std::vector<WitnessClaim> verdicts =
          replay(sim, successors, probe, probe_claims, options.max_states,
                 /*stop_at_refutation=*/true, &probe_states,
                 &probe_exhaustive);
      ++w.minimize_replays;
      w.minimize_states += probe_states;
      if (probe_exhaustive && all_confirmed(verdicts)) {
        w.state = std::move(probe);
        w.claims = verdicts;
        w.states_explored = probe_states;
        w.exhaustive = probe_exhaustive;
        claims = std::move(probe_claims);
        removed = true;
      }
    }
  }
  w.state_text = sim.describe(w.state);
  for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
    if (!w.state.queues[qi].empty()) {
      w.blocking_queues.push_back(
          net.prim(sim.queue_prim(static_cast<int>(qi))).name);
    }
  }
  w.replay_seconds = watch.seconds();
  return w;
}

std::string Witness::to_string() const {
  std::ostringstream os;
  os << "witness: "
     << (!consistent ? "inconsistent model decode"
         : blocked   ? "confirmed blocked execution"
                     : "not confirmed")
     << " (" << states_explored << " states"
     << (exhaustive ? ", exhaustive" : ", truncated") << ")\n";
  for (const std::string& p : inconsistencies) os << "  decode: " << p << "\n";
  for (const WitnessClaim& c : claims) {
    os << "  " << c.tag << ": " << deadlock::to_string(c.status);
    if (!c.note.empty()) os << " (" << c.note << ")";
    os << "\n";
  }
  if (blocked) {
    os << "  blocking queues:";
    for (const std::string& q : blocking_queues) os << " " << q;
    os << "\n";
  }
  if (replayed) {
    os << "  replay cost: " << replay_seconds << " s; " << minimize_replays
       << " minimization replays over " << minimize_states << " states\n";
  }
  return os.str();
}

std::string Witness::to_json() const {
  std::ostringstream os;
  os << "{\"consistent\":" << (consistent ? "true" : "false")
     << ",\"replayed\":" << (replayed ? "true" : "false")
     << ",\"blocked\":" << (blocked ? "true" : "false")
     << ",\"exhaustive\":" << (exhaustive ? "true" : "false")
     << ",\"states_explored\":" << states_explored
     << ",\"replay_seconds\":" << replay_seconds
     << ",\"minimize_replays\":" << minimize_replays
     << ",\"minimize_states\":" << minimize_states << ",\"claims\":[";
  for (std::size_t i = 0; i < claims.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"tag\":\"" << json_escape(claims[i].tag) << "\",\"status\":\""
       << deadlock::to_string(claims[i].status) << "\",\"note\":\""
       << json_escape(claims[i].note) << "\"}";
  }
  os << "],\"blocking_queues\":[";
  for (std::size_t i = 0; i < blocking_queues.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << json_escape(blocking_queues[i]) << "\"";
  }
  os << "],\"state\":\"" << json_escape(state_text) << "\"}";
  return os.str();
}

}  // namespace advocat::deadlock
