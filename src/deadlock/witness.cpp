#include "deadlock/witness.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <unordered_set>

#include "deadlock/varnames.hpp"

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

Claim parse_tag(const xmas::Network& net, const sim::Simulator& sim,
                const std::string& tag) {
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

std::vector<WitnessClaim> replay_claims(const xmas::Network& net,
                                        const sim::State& state,
                                        const std::vector<std::string>& tags,
                                        std::size_t max_states,
                                        std::size_t* states_explored,
                                        bool* exhaustive) {
  const sim::Simulator sim(net);
  std::vector<Claim> claims;
  claims.reserve(tags.size());
  for (const std::string& t : tags) claims.push_back(parse_tag(net, sim, t));

  // Per-claim refutation evidence gathered during the sweep.
  std::vector<std::string> refuted_by(claims.size());
  // PacketStuck: the colors stored at the witness state, minus every color
  // a reachable event pops from that queue. A survivor is a stuck packet.
  std::vector<std::set<ColorId>> stuck(claims.size());
  for (std::size_t i = 0; i < claims.size(); ++i) {
    if (claims[i].kind == Claim::Kind::PacketStuck) {
      const auto& content =
          state.queues[static_cast<std::size_t>(claims[i].queue_ordinal)];
      stuck[i].insert(content.begin(), content.end());
    }
  }

  // The frontier points into `visited` (set elements never move), so every
  // reached state is stored once.
  std::unordered_set<sim::State, sim::StateHash> visited{state};
  std::deque<const sim::State*> frontier{&*visited.begin()};
  bool truncated = false;
  std::size_t explored = 0;
  while (!frontier.empty()) {
    const sim::State& cur = *frontier.front();
    frontier.pop_front();
    ++explored;
    for (sim::Event& e : sim.events(cur)) {
      for (std::size_t i = 0; i < claims.size(); ++i) {
        const Claim& c = claims[i];
        switch (c.kind) {
          case Claim::Kind::SourceBlocked:
            if (e.initiator == c.source && refuted_by[i].empty()) {
              refuted_by[i] = "reachable injection: " + e.label;
            }
            break;
          case Claim::Kind::PacketStuck:
            for (const auto& [qo, pos] : e.effects.pops) {
              if (qo == c.queue_ordinal) {
                stuck[i].erase(
                    cur.queues[static_cast<std::size_t>(qo)]
                              [static_cast<std::size_t>(pos)]);
              }
            }
            break;
          case Claim::Kind::Dead:
            if (refuted_by[i].empty()) {
              for (const auto& [ai, to] : e.effects.moves) {
                (void)to;  // a self-loop transition still fires
                if (ai == c.automaton) {
                  refuted_by[i] = "reachable transition: " + e.label;
                  break;
                }
              }
            }
            break;
          case Claim::Kind::Unknown:
            break;
        }
      }
      if (visited.count(e.next) == 0) {
        if (visited.size() >= max_states) {
          truncated = true;
          continue;
        }
        frontier.push_back(&*visited.insert(std::move(e.next)).first);
      }
    }
  }
  if (states_explored != nullptr) *states_explored = explored;
  if (exhaustive != nullptr) *exhaustive = !truncated;

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
        } else if (truncated) {
          w.status = ClaimStatus::Inconclusive;
          w.note = "state budget exhausted";
        } else {
          w.status = ClaimStatus::Confirmed;
        }
        break;
      case Claim::Kind::PacketStuck:
        if (!stuck[i].empty()) {
          // A color no reachable event pops: stuck under every scheduler.
          // Valid only if we saw the whole reachable space.
          w.status =
              truncated ? ClaimStatus::Inconclusive : ClaimStatus::Confirmed;
          w.note = truncated
                       ? "state budget exhausted"
                       : "stuck color: " + net.colors().name(*stuck[i].begin());
        } else {
          w.status = ClaimStatus::Refuted;
          w.note = "every stored color has a reachable pop";
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

namespace {

bool all_confirmed(const std::vector<WitnessClaim>& claims) {
  if (claims.empty()) return false;
  return std::all_of(claims.begin(), claims.end(), [](const WitnessClaim& c) {
    return c.status == ClaimStatus::Confirmed;
  });
}

/// Tags still applicable to `state`: packet_stuck claims for queues that
/// are now empty make no assertion and are dropped.
std::vector<std::string> applicable_tags(const xmas::Network& net,
                                         const sim::Simulator& sim,
                                         const sim::State& state,
                                         const std::vector<std::string>& tags) {
  std::vector<std::string> out;
  for (const std::string& t : tags) {
    const Claim c = parse_tag(net, sim, t);
    if (c.kind == Claim::Kind::PacketStuck &&
        state.queues[static_cast<std::size_t>(c.queue_ordinal)].empty()) {
      continue;
    }
    out.push_back(t);
  }
  return out;
}

}  // namespace

Witness build_witness(const xmas::Network& net, const xmas::Typing& typing,
                      const smt::Model& model,
                      const std::vector<std::string>& fired,
                      const WitnessOptions& options) {
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
  std::vector<std::string> tags = applicable_tags(net, sim, w.state, fired);
  w.claims =
      replay_claims(net, w.state, tags, options.max_states,
                    &w.states_explored, &w.exhaustive);
  w.replayed = true;
  w.blocked = all_confirmed(w.claims);
  if (!w.blocked || !options.minimize) {
    if (w.blocked) {
      for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
        if (!w.state.queues[qi].empty()) {
          w.blocking_queues.push_back(
              net.prim(sim.queue_prim(static_cast<int>(qi))).name);
        }
      }
    }
    return w;
  }

  // ---- minimize: greedily empty queues whose contents the blockage does
  // not need. Passes repeat until none can be removed, so the final set is
  // inclusion-minimal: every single-queue removal was re-replayed against
  // the final state and broke a claim.
  bool removed = true;
  while (removed) {
    removed = false;
    for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
      if (w.state.queues[qi].empty()) continue;
      sim::State probe = w.state;
      probe.queues[qi].clear();
      const std::vector<std::string> probe_tags =
          applicable_tags(net, sim, probe, tags);
      if (probe_tags.empty()) continue;  // nothing left to claim: essential
      bool probe_exhaustive = false;
      const std::vector<WitnessClaim> verdicts = replay_claims(
          net, probe, probe_tags, options.max_states, nullptr,
          &probe_exhaustive);
      if (probe_exhaustive && all_confirmed(verdicts)) {
        w.state = std::move(probe);
        w.claims = verdicts;
        tags = probe_tags;
        removed = true;
      }
    }
  }
  w.minimal = true;
  w.state_text = sim.describe(w.state);
  for (std::size_t qi = 0; qi < sim.num_queues(); ++qi) {
    if (!w.state.queues[qi].empty()) {
      w.blocking_queues.push_back(
          net.prim(sim.queue_prim(static_cast<int>(qi))).name);
    }
  }
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
    os << (minimal ? " (minimal)" : "") << "\n";
  }
  return os.str();
}

std::string Witness::to_json() const {
  std::ostringstream os;
  os << "{\"consistent\":" << (consistent ? "true" : "false")
     << ",\"replayed\":" << (replayed ? "true" : "false")
     << ",\"blocked\":" << (blocked ? "true" : "false")
     << ",\"exhaustive\":" << (exhaustive ? "true" : "false")
     << ",\"states_explored\":" << states_explored << ",\"claims\":[";
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
  os << "],\"minimal\":" << (minimal ? "true" : "false") << ",\"state\":\""
     << json_escape(state_text) << "\"}";
  return os.str();
}

}  // namespace advocat::deadlock
