#include "xmas/network.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace advocat::xmas {

const char* to_string(PrimKind kind) {
  switch (kind) {
    case PrimKind::Source: return "source";
    case PrimKind::Sink: return "sink";
    case PrimKind::Queue: return "queue";
    case PrimKind::Function: return "function";
    case PrimKind::Fork: return "fork";
    case PrimKind::Join: return "join";
    case PrimKind::Switch: return "switch";
    case PrimKind::Merge: return "merge";
    case PrimKind::Automaton: return "automaton";
  }
  return "?";
}

PrimId Network::add_prim(Primitive p, int n_in, int n_out) {
  p.in.assign(static_cast<std::size_t>(n_in), kNoChan);
  p.out.assign(static_cast<std::size_t>(n_out), kNoChan);
  prims_.push_back(std::move(p));
  return static_cast<PrimId>(prims_.size() - 1);
}

PrimId Network::add_source(const std::string& name, ColorSet colors, bool fair) {
  Primitive p;
  p.kind = PrimKind::Source;
  p.name = name;
  p.source_colors = std::move(colors);
  p.fair = fair;
  return add_prim(std::move(p), 0, 1);
}

PrimId Network::add_sink(const std::string& name, bool fair) {
  Primitive p;
  p.kind = PrimKind::Sink;
  p.name = name;
  p.fair = fair;
  return add_prim(std::move(p), 1, 0);
}

PrimId Network::add_queue(const std::string& name, std::size_t capacity,
                          bool fifo) {
  if (capacity == 0) throw std::invalid_argument("queue capacity must be > 0");
  if (capacity > kMaxQueueCapacity) {
    throw std::invalid_argument(util::cat("queue capacity ", capacity,
                                          " exceeds ", kMaxQueueCapacity));
  }
  Primitive p;
  p.kind = PrimKind::Queue;
  p.name = name;
  p.capacity = capacity;
  p.fifo = fifo;
  return add_prim(std::move(p), 1, 1);
}

PrimId Network::add_function(const std::string& name,
                             std::function<ColorId(ColorId)> func) {
  Primitive p;
  p.kind = PrimKind::Function;
  p.name = name;
  p.func = std::move(func);
  return add_prim(std::move(p), 1, 1);
}

PrimId Network::add_fork(const std::string& name) {
  Primitive p;
  p.kind = PrimKind::Fork;
  p.name = name;
  return add_prim(std::move(p), 1, 2);
}

PrimId Network::add_join(const std::string& name) {
  Primitive p;
  p.kind = PrimKind::Join;
  p.name = name;
  return add_prim(std::move(p), 2, 1);
}

PrimId Network::add_switch(const std::string& name, int n_outputs,
                           std::function<int(ColorId)> route) {
  if (n_outputs < 2) throw std::invalid_argument("switch needs >= 2 outputs");
  Primitive p;
  p.kind = PrimKind::Switch;
  p.name = name;
  p.route = std::move(route);
  return add_prim(std::move(p), 1, n_outputs);
}

PrimId Network::add_merge(const std::string& name, int n_inputs) {
  if (n_inputs < 2) throw std::invalid_argument("merge needs >= 2 inputs");
  Primitive p;
  p.kind = PrimKind::Merge;
  p.name = name;
  return add_prim(std::move(p), n_inputs, 1);
}

PrimId Network::add_automaton(Automaton automaton) {
  Primitive p;
  p.kind = PrimKind::Automaton;
  p.name = automaton.name;
  p.automaton = static_cast<int>(automata_.size());
  const int n_in = automaton.num_in;
  const int n_out = automaton.num_out;
  automata_.push_back(std::move(automaton));
  const PrimId id = add_prim(std::move(p), n_in, n_out);
  automaton_prims_.push_back(id);
  return id;
}

ChanId Network::connect(PrimId from, int out_port, PrimId to, int in_port,
                        std::string name) {
  Primitive& src = prims_.at(static_cast<std::size_t>(from));
  Primitive& dst = prims_.at(static_cast<std::size_t>(to));
  if (out_port < 0 || static_cast<std::size_t>(out_port) >= src.out.size())
    throw std::out_of_range("connect: bad out-port on " + src.name);
  if (in_port < 0 || static_cast<std::size_t>(in_port) >= dst.in.size())
    throw std::out_of_range("connect: bad in-port on " + dst.name);
  if (src.out[static_cast<std::size_t>(out_port)] != kNoChan)
    throw std::logic_error("connect: out-port already wired on " + src.name);
  if (dst.in[static_cast<std::size_t>(in_port)] != kNoChan)
    throw std::logic_error("connect: in-port already wired on " + dst.name);
  Channel c;
  c.initiator = from;
  c.init_port = out_port;
  c.target = to;
  c.tgt_port = in_port;
  c.name = std::move(name);
  const ChanId id = static_cast<ChanId>(chans_.size());
  chans_.push_back(std::move(c));
  src.out[static_cast<std::size_t>(out_port)] = id;
  dst.in[static_cast<std::size_t>(in_port)] = id;
  return id;
}

std::vector<PrimId> Network::prims_of_kind(PrimKind kind) const {
  std::vector<PrimId> out;
  for (std::size_t i = 0; i < prims_.size(); ++i) {
    if (prims_[i].kind == kind) out.push_back(static_cast<PrimId>(i));
  }
  return out;
}

std::string Network::channel_name(ChanId id) const {
  const Channel& c = channel(id);
  if (!c.name.empty()) return c.name;
  return util::cat(prim(c.initiator).name, ".", c.init_port, ">",
                   prim(c.target).name, ".", c.tgt_port);
}

std::size_t Network::num_prims_desugared() const {
  std::size_t n = 0;
  for (const Primitive& p : prims_) {
    switch (p.kind) {
      case PrimKind::Switch:
        // An N-way switch is a chain of N-1 binary switches.
        n += p.out.size() - 1;
        break;
      case PrimKind::Merge:
        n += p.in.size() - 1;
        break;
      default:
        n += 1;
        break;
    }
  }
  return n;
}

}  // namespace advocat::xmas
