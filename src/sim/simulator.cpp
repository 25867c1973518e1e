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
    fifo_.push_back(net.prim(q).fifo);
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
      automaton_ids_(sim.net_.automata().size(), -1),
      len_(sim.num_queues()),
      start_(sim.num_queues()),
      offer_begin_(sim.num_queues() + 1),
      seen_(sim.net_.colors().size(), 0),
      route_row_(sim.net_.channels().size(), -1) {
  for (PrimId a : net_.prims_of_kind(PrimKind::Automaton)) {
    automaton_ids_[static_cast<std::size_t>(net_.prim(a).automaton)] = a;
  }
  std::size_t lists = 0;
  for (PrimId sid : sim.fair_sources_) {
    Injector s;
    s.id = sid;
    s.out = net_.prim(sid).out[0];
    s.lists = lists;
    if (s.out != xmas::kNoChan) {
      const xmas::Channel& ch = net_.channel(s.out);
      const Primitive& t = net_.prim(ch.target);
      if (t.kind == PrimKind::Automaton) {
        s.automaton = t.automaton;
        s.port = ch.tgt_port;
      }
    }
    lists += s.automaton < 0
                 ? 1
                 : static_cast<std::size_t>(
                       net_.automata()[static_cast<std::size_t>(s.automaton)].num_states());
    injectors_.push_back(s);
  }
  colour_lists_.assign(lists, Range{});
}

std::uint32_t Successors::load(std::size_t index) const {
  return load_element(cur_.data(), index, sim_.width_);
}

std::size_t Successors::colour_index(ColorId d) const {
  if (d < 0 || static_cast<std::size_t>(d) >= net_.colors().size()) {
    throw std::out_of_range("sim::Successors: unknown colour " + std::to_string(d));
  }
  return static_cast<std::size_t>(d);
}

std::int32_t Successors::mapped(PrimId id, const Primitive& p, ColorId d) {
  constexpr std::int32_t kUnknown = std::numeric_limits<std::int32_t>::min();
  const std::size_t colors = net_.colors().size();
  if (mapped_.empty()) mapped_.assign(net_.num_prims() * colors, kUnknown);
  std::int32_t& m = mapped_[static_cast<std::size_t>(id) * colors + colour_index(d)];
  if (m == kUnknown) m = p.kind == PrimKind::Switch ? p.route(d) : p.func(d);
  return m;
}

Successors::Range Successors::firings(int a, int state, int port, ColorId d) {
  const auto& automata = net_.automata();
  const std::size_t colors = net_.colors().size();
  if (firing_base_.empty()) {
    std::size_t total = 0;
    for (const xmas::Automaton& x : automata) {
      firing_base_.push_back(total);
      total += static_cast<std::size_t>(x.num_states()) *
               static_cast<std::size_t>(x.num_in) * colors;
    }
    firing_index_.assign(total, Range{});
  }
  const xmas::Automaton& aut = automata[static_cast<std::size_t>(a)];
  if (state < 0 || state >= aut.num_states() || port < 0 || port >= aut.num_in) {
    throw std::out_of_range("sim::Successors: bad automaton state or port on " + aut.name);
  }
  const std::size_t row = static_cast<std::size_t>(state) *
                              static_cast<std::size_t>(aut.num_in) +
                          static_cast<std::size_t>(port);
  Range& r = firing_index_[firing_base_[static_cast<std::size_t>(a)] +
                           row * colors + colour_index(d)];
  if (r.count >= 0) return r;
  const auto first = static_cast<std::uint32_t>(firings_.size());
  for (const auto& t : aut.transitions) {
    if (t.from != state || !t.guard(port, d)) continue;
    const auto em = t.transform(port, d);
    firings_.push_back(em.has_value() ? Firing{t.to, true, em->first, em->second}
                                      : Firing{t.to, false, 0, xmas::kNoColor});
  }
  r = Range{first, static_cast<std::int32_t>(firings_.size() - first)};
  return r;
}

Successors::Route Successors::route(ChanId c, ColorId d) {
  const auto ci = static_cast<std::size_t>(c);
  if (ci >= route_row_.size()) {
    throw std::out_of_range("sim::Successors: no channel " + std::to_string(c));
  }
  std::int32_t& row = route_row_[ci];
  if (row < 0) {
    row = static_cast<std::int32_t>(routes_.size());
    routes_.resize(routes_.size() + net_.colors().size());
  }
  Route& r = routes_[static_cast<std::size_t>(row) + colour_index(d)];
  if (r.hops >= 0) return r;
  // The one walk through the stateless hops. Past kMaxDepth hops the
  // route is dead from any depth (this also ends a combinational loop).
  r.hops = 0;
  for (int hops = 0; hops <= kMaxDepth; ++hops) {
    (void)colour_index(d);  // every colour a route carries is in the table
    const xmas::Channel& ch = net_.channel(c);
    const PrimId id = ch.target;
    const Primitive& p = net_.prim(id);
    Route::To to = Route::To::Dead;
    std::int32_t target = id;
    switch (p.kind) {
      case PrimKind::Function:
        d = mapped(id, p, d);
        c = p.out[0];
        continue;
      case PrimKind::Merge:
        c = p.out[0];
        continue;
      case PrimKind::Switch: {
        const int out = mapped(id, p, d);
        if (out < 0 || static_cast<std::size_t>(out) >= p.out.size()) return r;
        c = p.out[static_cast<std::size_t>(out)];
        continue;
      }
      case PrimKind::Queue:
        to = Route::To::Queue;
        target = sim_.ordinal_of(id);
        break;
      case PrimKind::Sink:
        if (p.fair) to = Route::To::Sink;
        break;
      case PrimKind::Automaton:
        to = Route::To::Automaton;
        target = p.automaton;
        break;
      case PrimKind::Fork:
        to = Route::To::Fork;
        break;
      case PrimKind::Join:
        to = Route::To::Join;
        break;
      case PrimKind::Source:
        break;
    }
    r = Route{to, static_cast<std::int8_t>(hops),
              static_cast<std::int16_t>(ch.tgt_port), target, d};
    return r;
  }
  return r;
}

bool Successors::may_take(const Route& r) {
  const auto t = static_cast<std::size_t>(r.target);
  switch (r.to) {
    case Route::To::Dead:
      return false;
    case Route::To::Queue:
      return len_[t] < sim_.capacity_[t];
    case Route::To::Automaton:
      return firings(r.target, static_cast<int>(load(aut_start_ + t)), r.port,
                     r.color).count > 0;
    case Route::To::Sink:
    case Route::To::Fork:
    case Route::To::Join:
      return true;
  }
  return true;
}

std::span<const ColorId> Successors::injectable(const Injector& s) {
  std::size_t state = 0;
  if (s.automaton >= 0) {
    state = load(aut_start_ + static_cast<std::size_t>(s.automaton));
    const xmas::Automaton& aut = net_.automata()[static_cast<std::size_t>(s.automaton)];
    if (state >= static_cast<std::size_t>(aut.num_states())) {
      throw std::out_of_range("sim::Successors: bad automaton state on " + aut.name);
    }
  }
  Range& r = colour_lists_[s.lists + state];
  if (r.count < 0) {
    const auto first = static_cast<std::uint32_t>(colour_pool_.size());
    for (ColorId d : net_.prim(s.id).source_colors) {
      if (s.automaton < 0 ||
          firings(s.automaton, static_cast<int>(state), s.port, d).count > 0) {
        colour_pool_.push_back(d);
      }
    }
    r = Range{first, static_cast<std::int32_t>(colour_pool_.size() - first)};
  }
  return {colour_pool_.data() + r.first, static_cast<std::size_t>(r.count)};
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

  // What each queue offers: a FIFO its head; a bag the first occurrence of
  // each distinct stored colour (identical colours are interchangeable).
  offer_pos_.clear();
  for (std::size_t q = 0; q < queues; ++q) {
    offer_begin_[q] = offer_pos_.size();
    if (len_[q] == 0) continue;
    if (sim_.fifo_[q]) {
      offer_pos_.push_back(0);
      continue;
    }
    if (++stamp_ == 0) {  // wrapped: no colour may look seen
      std::fill(seen_.begin(), seen_.end(), 0);
      stamp_ = 1;
    }
    for (std::uint32_t i = 0; i < len_[q]; ++i) {
      std::uint32_t& seen =
          seen_[colour_index(stored(static_cast<int>(q), static_cast<int>(i)))];
      if (seen == stamp_) continue;
      seen = stamp_;
      offer_pos_.push_back(i);
    }
  }
  offer_begin_[queues] = offer_pos_.size();

  // Initiation points are the storage producers: sources and queues.
  auto done = [this] { emit(); };
  for (const Injector& s : injectors_) {
    initiator_ = s.id;
    // colour_pool_ grows only in injectable(), so the span stays valid.
    for (ColorId d : injectable(s)) {
      color_ = d;
      accepts(s.out, d, 0, Then(done));
    }
  }
  for (std::size_t qi = 0; qi < queues; ++qi) {
    const auto q = static_cast<int>(qi);
    const PrimId qid = sim_.queue_ids_[qi];
    const ChanId out = net_.prim(qid).out[0];
    initiator_ = qid;
    for (std::size_t i = offer_begin_[qi]; i < offer_begin_[qi + 1]; ++i) {
      const auto pos = static_cast<int>(offer_pos_[i]);
      const ColorId c = stored(q, pos);
      const Route r = route(out, c);
      if (!may_take(r)) continue;
      fx_.pops.emplace_back(q, pos);
      color_ = c;
      deliver(r, 0, Then(done));
      fx_.pops.pop_back();
    }
  }
  sink_ = nullptr;
  return emitted_;
}

void Successors::deliver(Route r, int depth, Then k) {
  depth += r.hops;
  if (depth > kMaxDepth) return;
  switch (r.to) {
    case Route::To::Dead:
      return;
    case Route::To::Queue: {
      const auto q = static_cast<std::size_t>(r.target);
      if (len_[q] >= sim_.capacity_[q]) return;
      fx_.pushes.emplace_back(r.target, r.color);
      k();
      fx_.pushes.pop_back();
      return;
    }
    case Route::To::Sink:
      k();
      return;
    case Route::To::Fork: {
      const Primitive& p = net_.prim(r.target);
      auto second = [&] { accepts(p.out[1], r.color, depth + 1, k); };
      accepts(p.out[0], r.color, depth + 1, Then(second));
      return;
    }
    case Route::To::Join: {
      // A join fires when both inputs transfer; the packet on the data
      // input (port 0) is copied to the output.
      const Primitive& p = net_.prim(r.target);
      if (r.port == 0) {
        auto with_token = [&](ColorId) {
          accepts(p.out[0], r.color, depth + 1, k);
        };
        offers(p.in[1], depth + 1, OfferThen(with_token));
      } else {
        auto with_data = [&](ColorId data) {
          accepts(p.out[0], data, depth + 1, k);
        };
        offers(p.in[0], depth + 1, OfferThen(with_data));
      }
      return;
    }
    case Route::To::Automaton: {
      const auto a = static_cast<std::size_t>(r.target);
      const auto cur = static_cast<int>(load(aut_start_ + a));
      const Range fr = firings(r.target, cur, r.port, r.color);
      for (std::int32_t i = 0; i < fr.count; ++i) {
        // By value: a nested expansion may grow firings_.
        const Firing f = firings_[fr.first + static_cast<std::uint32_t>(i)];
        fx_.moves.emplace_back(r.target, f.to);
        if (!f.emits) {
          k();
        } else {
          accepts(net_.prim(automaton_ids_[a]).out.at(static_cast<std::size_t>(f.port)),
                  f.color, depth + 1, k);
        }
        fx_.moves.pop_back();
      }
      return;
    }
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
      const auto qi = static_cast<std::size_t>(q);
      for (std::size_t i = offer_begin_[qi]; i < offer_begin_[qi + 1]; ++i) {
        const auto pos = static_cast<int>(offer_pos_[i]);
        fx_.pops.emplace_back(q, pos);
        k(stored(q, pos));
        fx_.pops.pop_back();
      }
      return;
    }
    case PrimKind::Function: {
      auto image = [&](ColorId o) { k(mapped(ch.initiator, p, o)); };
      offers(p.in[0], depth + 1, OfferThen(image));
      return;
    }
    case PrimKind::Switch: {
      auto routed = [&](ColorId o) {
        if (mapped(ch.initiator, p, o) == port) k(o);
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
