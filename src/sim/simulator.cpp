#include "sim/simulator.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace advocat::sim {

using xmas::ChanId;
using xmas::ColorId;
using xmas::PrimId;
using xmas::PrimKind;
using xmas::Primitive;

namespace {

std::uint32_t load_element(const std::uint8_t* p, std::size_t i, unsigned w) {
  switch (w) {
    case 1:
      return p[i];
    case 2: {
      std::uint16_t v = 0;
      std::memcpy(&v, p + 2 * i, 2);
      return v;
    }
    default: {
      std::uint32_t v = 0;
      std::memcpy(&v, p + 4 * i, 4);
      return v;
    }
  }
}

void store_element(std::uint8_t* p, std::size_t i, unsigned w,
                   std::uint32_t v) {
  switch (w) {
    case 1:
      p[i] = static_cast<std::uint8_t>(v);
      return;
    case 2: {
      const auto v16 = static_cast<std::uint16_t>(v);
      std::memcpy(p + 2 * i, &v16, 2);
      return;
    }
    default:
      std::memcpy(p + 4 * i, &v, 4);
      return;
  }
}

}  // namespace

Simulator::Simulator(const xmas::Network& net) : net_(net) {
  for (PrimId s : net.prims_of_kind(PrimKind::Source)) {
    if (net.prim(s).fair) fair_sources_.push_back(s);
  }
  queue_ordinal_.assign(net.num_prims(), -1);
  std::size_t largest = net.colors().size() > 0 ? net.colors().size() - 1 : 0;
  for (PrimId q : net.prims_of_kind(PrimKind::Queue)) {
    queue_ordinal_[static_cast<std::size_t>(q)] = static_cast<int>(queue_ids_.size());
    queue_ids_.push_back(q);
    capacity_.push_back(net.prim(q).capacity);
    largest = std::max(largest, net.prim(q).capacity);
  }
  for (const xmas::Automaton& a : net.automata()) {
    if (a.num_states() > 0) {
      largest = std::max(largest, static_cast<std::size_t>(a.num_states() - 1));
    }
  }
  width_ = largest <= std::numeric_limits<std::uint8_t>::max()    ? 1
           : largest <= std::numeric_limits<std::uint16_t>::max() ? 2
                                                                  : 4;
}

State Simulator::initial() const {
  State s;
  s.queues.resize(queue_ids_.size());
  for (const auto& a : net_.automata()) s.aut_states.push_back(a.initial);
  return s;
}

void Simulator::pack(const State& s, std::vector<std::uint8_t>& out) const {
  if (s.queues.size() != queue_ids_.size() ||
      s.aut_states.size() != net_.automata().size()) {
    throw std::invalid_argument("sim::Simulator::pack: state shape does not match the network");
  }
  std::size_t elements = s.queues.size() + s.aut_states.size();
  for (std::size_t q = 0; q < s.queues.size(); ++q) {
    if (s.queues[q].size() > capacity_[q]) {
      throw std::invalid_argument("sim::Simulator::pack: " + net_.prim(queue_ids_[q]).name +
                                  " holds more than its capacity");
    }
    elements += s.queues[q].size();
  }
  out.assign(elements * width_, 0);
  std::size_t at = 0;
  for (const auto& q : s.queues) {
    store_element(out.data(), at++, width_, static_cast<std::uint32_t>(q.size()));
  }
  for (const auto& q : s.queues) {
    for (ColorId c : q) {
      if (c < 0 || static_cast<std::size_t>(c) >= net_.colors().size()) {
        throw std::invalid_argument("sim::Simulator::pack: unknown colour " + std::to_string(c));
      }
      store_element(out.data(), at++, width_, static_cast<std::uint32_t>(c));
    }
  }
  for (std::size_t a = 0; a < s.aut_states.size(); ++a) {
    const int st = s.aut_states[a];
    if (st < 0 || st >= net_.automata()[a].num_states()) {
      throw std::invalid_argument("sim::Simulator::pack: " + net_.automata()[a].name +
                                  " has no state " + std::to_string(st));
    }
    store_element(out.data(), at++, width_, static_cast<std::uint32_t>(st));
  }
}

State Simulator::unpack(const std::uint8_t* packed) const {
  State s;
  s.queues.resize(queue_ids_.size());
  std::size_t at = queue_ids_.size();
  for (std::size_t q = 0; q < queue_ids_.size(); ++q) {
    const std::uint32_t n = load_element(packed, q, width_);
    for (std::uint32_t i = 0; i < n; ++i) {
      s.queues[q].push_back(static_cast<ColorId>(load_element(packed, at++, width_)));
    }
  }
  for (std::size_t a = 0; a < net_.automata().size(); ++a) {
    s.aut_states.push_back(static_cast<int>(load_element(packed, at++, width_)));
  }
  return s;
}

std::vector<Event> Simulator::events(const State& s) const {
  std::vector<std::uint8_t> packed;
  pack(s, packed);
  std::vector<Event> result;
  Successors successors(*this);
  successors.for_each(packed.data(), [&](const Step& step) {
    result.push_back({label(step.initiator, step.color), step.initiator,
                      step.effects, unpack(step.next.data())});
  });
  return result;
}

std::string Simulator::label(PrimId initiator, ColorId color) const {
  const Primitive& p = net_.prim(initiator);
  return p.name + (p.kind == PrimKind::Source ? "!" : ">") + net_.colors().name(color);
}

std::string Simulator::describe(const State& s) const {
  std::ostringstream os;
  for (std::size_t qi = 0; qi < queue_ids_.size(); ++qi) {
    const auto& content = s.queues[qi];
    if (content.empty()) continue;
    os << net_.prim(queue_ids_[qi]).name << ": [";
    for (std::size_t i = 0; i < content.size(); ++i) {
      if (i) os << ", ";
      os << net_.colors().name(content[i]);
    }
    os << "]\n";
  }
  for (std::size_t ai = 0; ai < net_.automata().size(); ++ai) {
    const auto& a = net_.automata()[ai];
    os << a.name << ": " << a.states[static_cast<std::size_t>(s.aut_states[ai])] << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------- Successors

Successors::Successors(const Simulator& sim)
    : sim_(sim),
      net_(sim.net_),
      len_(sim.num_queues()),
      start_(sim.num_queues()) {}

std::uint32_t Successors::load(std::size_t index) const {
  return load_element(cur_.data(), index, sim_.width_);
}

ColorId Successors::stored(int q, int pos) const {
  return static_cast<ColorId>(load(start_[static_cast<std::size_t>(q)] +
                                   static_cast<std::size_t>(pos)));
}

std::size_t Successors::run(const std::uint8_t* packed,
                            Ref<void(const Step&)> f) {
  const std::size_t queues = len_.size();
  const unsigned w = sim_.width_;
  std::size_t stored_total = 0;
  for (std::size_t q = 0; q < queues; ++q) {
    len_[q] = load_element(packed, q, w);
    start_[q] = queues + stored_total;
    stored_total += len_[q];
  }
  aut_start_ = queues + stored_total;
  cur_.assign(packed,
              packed + (aut_start_ + net_.automata().size()) * w);
  // A callback that threw mid-enumeration may have left effects stacked.
  fx_.pops.clear();
  fx_.pushes.clear();
  fx_.moves.clear();
  sink_ = &f;
  emitted_ = 0;

  // Initiation points are the storage producers: sources and queues.
  for (PrimId sid : sim_.fair_sources_) {
    const Primitive& src = net_.prim(sid);
    initiator_ = sid;
    for (ColorId d : src.source_colors) {
      color_ = d;
      auto done = [this] { emit(); };
      accepts(src.out[0], d, 0, Then(done));
    }
  }
  for (std::size_t qi = 0; qi < queues; ++qi) {
    const PrimId qid = sim_.queue_ids_[qi];
    const ChanId out = net_.prim(qid).out[0];
    initiator_ = qid;
    auto transfer = [this, out](ColorId c) {
      color_ = c;
      auto done = [this] { emit(); };
      accepts(out, c, 0, Then(done));
    };
    offers(out, 0, OfferThen(transfer));
  }
  sink_ = nullptr;
  return emitted_;
}

void Successors::accepts(ChanId c, ColorId d, int depth, Then k) {
  if (depth > kMaxDepth) return;
  const xmas::Channel& ch = net_.channel(c);
  const Primitive& p = net_.prim(ch.target);
  const int port = ch.tgt_port;
  switch (p.kind) {
    case PrimKind::Queue: {
      const int q = sim_.ordinal_of(ch.target);
      if (len_[static_cast<std::size_t>(q)] >= sim_.capacity_[static_cast<std::size_t>(q)]) return;
      fx_.pushes.emplace_back(q, d);
      k();
      fx_.pushes.pop_back();
      return;
    }
    case PrimKind::Sink:
      if (p.fair) k();
      return;
    case PrimKind::Function:
      accepts(p.out[0], p.func(d), depth + 1, k);
      return;
    case PrimKind::Switch: {
      const int out = p.route(d);
      if (out < 0 || static_cast<std::size_t>(out) >= p.out.size()) return;
      accepts(p.out[static_cast<std::size_t>(out)], d, depth + 1, k);
      return;
    }
    case PrimKind::Merge:
      accepts(p.out[0], d, depth + 1, k);
      return;
    case PrimKind::Fork: {
      auto second = [&] { accepts(p.out[1], d, depth + 1, k); };
      accepts(p.out[0], d, depth + 1, Then(second));
      return;
    }
    case PrimKind::Join: {
      // A join fires when both inputs transfer; the packet on the data
      // input (port 0) is copied to the output.
      if (port == 0) {
        auto with_token = [&](ColorId) { accepts(p.out[0], d, depth + 1, k); };
        offers(p.in[1], depth + 1, OfferThen(with_token));
      } else {
        auto with_data = [&](ColorId data) {
          accepts(p.out[0], data, depth + 1, k);
        };
        offers(p.in[0], depth + 1, OfferThen(with_data));
      }
      return;
    }
    case PrimKind::Automaton: {
      const xmas::Automaton& a = net_.automaton_of(p);
      const auto cur = static_cast<int>(load(aut_start_ + static_cast<std::size_t>(p.automaton)));
      for (const auto& t : a.transitions) {
        if (t.from != cur || !t.guard(port, d)) continue;
        fx_.moves.emplace_back(p.automaton, t.to);
        const auto em = t.transform(port, d);
        if (!em.has_value()) {
          k();
        } else {
          accepts(p.out.at(static_cast<std::size_t>(em->first)), em->second,
                  depth + 1, k);
        }
        fx_.moves.pop_back();
      }
      return;
    }
    case PrimKind::Source:
      return;
  }
}

void Successors::offers(ChanId c, int depth, OfferThen k) {
  if (depth > kMaxDepth) return;
  const xmas::Channel& ch = net_.channel(c);
  const Primitive& p = net_.prim(ch.initiator);
  const int port = ch.init_port;
  switch (p.kind) {
    case PrimKind::Source:
      if (p.fair) {
        for (ColorId d : p.source_colors) k(d);
      }
      return;
    case PrimKind::Queue: {
      const int q = sim_.ordinal_of(ch.initiator);
      const std::uint32_t n = len_[static_cast<std::size_t>(q)];
      // FIFO: the head only. Bag: any stored packet (first occurrence of
      // each distinct colour; identical colours are interchangeable).
      const std::uint32_t offered = p.fifo ? std::min<std::uint32_t>(n, 1) : n;
      for (std::uint32_t i = 0; i < offered; ++i) {
        const ColorId color = stored(q, static_cast<int>(i));
        bool seen = false;
        for (std::uint32_t j = 0; j < i && !seen; ++j) {
          seen = stored(q, static_cast<int>(j)) == color;
        }
        if (seen) continue;
        fx_.pops.emplace_back(q, static_cast<int>(i));
        k(color);
        fx_.pops.pop_back();
      }
      return;
    }
    case PrimKind::Function: {
      auto mapped = [&](ColorId o) { k(p.func(o)); };
      offers(p.in[0], depth + 1, OfferThen(mapped));
      return;
    }
    case PrimKind::Switch: {
      auto routed = [&](ColorId o) {
        if (p.route(o) == port) k(o);
      };
      offers(p.in[0], depth + 1, OfferThen(routed));
      return;
    }
    case PrimKind::Merge:
      for (ChanId in : p.in) offers(in, depth + 1, k);
      return;
    case PrimKind::Fork: {
      // Offering on one output requires the other output to accept the same
      // packet simultaneously.
      const ChanId other = p.out[port == 0 ? 1 : 0];
      auto both = [&](ColorId o) {
        auto offered = [&] { k(o); };
        accepts(other, o, depth + 1, Then(offered));
      };
      offers(p.in[0], depth + 1, OfferThen(both));
      return;
    }
    case PrimKind::Join: {
      auto with_data = [&](ColorId data) {
        auto with_token = [&](ColorId) { k(data); };
        offers(p.in[1], depth + 1, OfferThen(with_token));
      };
      offers(p.in[0], depth + 1, OfferThen(with_data));
      return;
    }
    case PrimKind::Automaton:
      // Automata only emit while consuming; their emissions are enumerated
      // through accepts() on the consumed input, never as standalone offers.
    case PrimKind::Sink:
      return;
  }
}

void Successors::emit() {
  const auto& pops = fx_.pops;
  const auto& pushes = fx_.pushes;
  const auto& moves = fx_.moves;
  // At most one transition per automaton per event.
  for (std::size_t i = 0; i < moves.size(); ++i) {
    for (std::size_t j = i + 1; j < moves.size(); ++j) {
      if (moves[i].first == moves[j].first) return;
    }
  }
  // Each pre-event slot is popped at most once.
  for (std::size_t i = 0; i < pops.size(); ++i) {
    for (std::size_t j = i + 1; j < pops.size(); ++j) {
      if (pops[i] == pops[j]) return;
    }
  }
  // The queues the event touches, ascending, with their new lengths: pops
  // first, then the pushes must fit the capacity left after them.
  touched_.clear();
  for (const auto& pop : pops) touched_.push_back(pop.first);
  for (const auto& push : pushes) touched_.push_back(push.first);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  for (const int q : touched_) {
    std::size_t n = len_[static_cast<std::size_t>(q)];
    for (const auto& pop : pops) n -= pop.first == q;
    for (const auto& push : pushes) n += push.first == q;
    if (n > sim_.capacity_[static_cast<std::size_t>(q)]) return;
  }
  for (const auto& push : pushes) {
    if (push.second < 0 || static_cast<std::size_t>(push.second) >= net_.colors().size()) {
      throw std::out_of_range("sim::Successors: event pushes unknown colour " +
                              std::to_string(push.second));
    }
  }

  // Copy the untouched runs whole; rebuild the touched queues.
  const unsigned w = sim_.width_;
  const std::size_t queues = len_.size();
  next_.resize(cur_.size() + pushes.size() * w - pops.size() * w);
  std::uint8_t* out = next_.data();
  const std::uint8_t* in = cur_.data();
  std::memcpy(out, in, queues * w);
  std::size_t from = queues;  // next element of cur_ to copy
  std::size_t at = queues;    // next element of next_ to write
  for (const int q : touched_) {
    const auto qi = static_cast<std::size_t>(q);
    const std::size_t run = start_[qi] - from;
    std::memcpy(out + at * w, in + from * w, run * w);
    at += run;
    const std::size_t first = at;
    for (std::uint32_t i = 0; i < len_[qi]; ++i) {
      bool popped = false;
      for (const auto& [pq, pos] : pops) {
        popped |= pq == q && static_cast<std::uint32_t>(pos) == i;
      }
      if (!popped) store_element(out, at++, w, load(start_[qi] + i));
    }
    for (const auto& [pq, color] : pushes) {
      if (pq == q) store_element(out, at++, w, static_cast<std::uint32_t>(color));
    }
    store_element(out, qi, w, static_cast<std::uint32_t>(at - first));
    from = start_[qi] + len_[qi];
  }
  // The rest of the contents and the automaton states.
  std::memcpy(out + at * w, in + from * w, cur_.size() - from * w);
  at += aut_start_ - from;
  for (const auto& [a, to] : moves) {
    store_element(out, at + static_cast<std::size_t>(a), w, static_cast<std::uint32_t>(to));
  }
  ++emitted_;
  (*sink_)(Step{initiator_, color_, fx_, std::span<const std::uint8_t>(next_)});
}

}  // namespace advocat::sim
