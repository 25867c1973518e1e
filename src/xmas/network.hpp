// xMAS networks.
//
// A network is a set of primitives wired by channels. Each channel connects
// exactly one initiator out-port to exactly one target in-port and carries
// the three xMAS signals irdy/trdy/data (the signals themselves only appear
// in the analyses; the network stores structure and parameters).
//
// Supported primitives: the eight basic xMAS primitives of the paper
// (queue, function, source, sink, fork, join, switch, merge) plus IO
// automata. Switch and merge are generalized to N ports, which desugars to
// the binary versions; analyses treat them natively.
//
// The builders check what one call can see (port numbers, arity, queue
// capacity); analysis::analyze checks the whole network.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "xmas/automaton.hpp"
#include "xmas/color.hpp"

namespace advocat::xmas {

using PrimId = std::int32_t;
using ChanId = std::int32_t;
inline constexpr ChanId kNoChan = -1;
/// Largest queue capacity a network accepts. The encodings carry
/// capacities as int64 and sum them in rows and intervals, so the cap
/// leaves that arithmetic far from overflow.
inline constexpr std::size_t kMaxQueueCapacity =
    std::numeric_limits<std::int32_t>::max();

enum class PrimKind {
  Source,
  Sink,
  Queue,
  Function,
  Fork,
  Join,
  Switch,
  Merge,
  Automaton,
};

[[nodiscard]] const char* to_string(PrimKind kind);

struct Primitive {
  PrimKind kind;
  std::string name;
  std::vector<ChanId> in;   ///< per in-port, kNoChan until connected
  std::vector<ChanId> out;  ///< per out-port, kNoChan until connected

  // --- kind-specific parameters ---
  std::size_t capacity = 0;  ///< Queue: number of packets it can store
  /// Queue: FIFO when true; when false the queue is a bag, modelling the
  /// paper's "stall and move to the end of the queue" consumption.
  bool fifo = true;
  ColorSet source_colors;   ///< Source: colors it may inject
  bool fair = true;         ///< Source/Sink: fair (live) vs dead
  std::function<ColorId(ColorId)> func;   ///< Function: data transform
  std::function<int(ColorId)> route;      ///< Switch: color -> out-port
  int automaton = -1;       ///< Automaton: index into Network::automata()
};

struct Channel {
  PrimId initiator = -1;
  int init_port = 0;
  PrimId target = -1;
  int tgt_port = 0;
  std::string name;
};

class Network {
 public:
  ColorTable& colors() { return colors_; }
  [[nodiscard]] const ColorTable& colors() const { return colors_; }

  // --- builders (names must be unique; used in reports and invariants) ---
  PrimId add_source(const std::string& name, ColorSet colors, bool fair = true);
  PrimId add_sink(const std::string& name, bool fair = true);
  /// Throws std::invalid_argument unless 0 < capacity <= kMaxQueueCapacity.
  PrimId add_queue(const std::string& name, std::size_t capacity,
                   bool fifo = true);
  PrimId add_function(const std::string& name,
                      std::function<ColorId(ColorId)> func);
  PrimId add_fork(const std::string& name);
  /// Join: in-port 0 is the data input (copied to the output), in-port 1 the
  /// token input.
  PrimId add_join(const std::string& name);
  PrimId add_switch(const std::string& name, int n_outputs,
                    std::function<int(ColorId)> route);
  PrimId add_merge(const std::string& name, int n_inputs);
  /// Adds an automaton primitive; ports come from the automaton definition.
  PrimId add_automaton(Automaton automaton);

  /// Wires (from, out_port) -> (to, in_port). Both ports must be free.
  ChanId connect(PrimId from, int out_port, PrimId to, int in_port,
                 std::string name = {});

  // --- accessors ---
  [[nodiscard]] const std::vector<Primitive>& prims() const { return prims_; }
  [[nodiscard]] const Primitive& prim(PrimId id) const { return prims_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] const std::vector<Channel>& channels() const { return chans_; }
  [[nodiscard]] const Channel& channel(ChanId id) const { return chans_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] const std::vector<Automaton>& automata() const { return automata_; }
  [[nodiscard]] const Automaton& automaton_of(const Primitive& p) const {
    return automata_.at(static_cast<std::size_t>(p.automaton));
  }
  /// Primitive that owns automaton index `a`.
  [[nodiscard]] PrimId automaton_prim(int a) const { return automaton_prims_.at(static_cast<std::size_t>(a)); }

  [[nodiscard]] std::vector<PrimId> prims_of_kind(PrimKind kind) const;
  [[nodiscard]] std::size_t num_prims() const { return prims_.size(); }
  [[nodiscard]] std::size_t num_channels() const { return chans_.size(); }
  [[nodiscard]] std::size_t num_queues() const { return prims_of_kind(PrimKind::Queue).size(); }

  /// Channel display name (explicit name or "initiator.port>target.port").
  [[nodiscard]] std::string channel_name(ChanId id) const;

  /// Counts all primitives after desugaring N-way switches/merges into
  /// binary trees — the convention the paper's "2844 primitives" uses.
  [[nodiscard]] std::size_t num_prims_desugared() const;

 private:
  PrimId add_prim(Primitive p, int n_in, int n_out);

  ColorTable colors_;
  std::vector<Primitive> prims_;
  std::vector<Channel> chans_;
  std::vector<Automaton> automata_;
  std::vector<PrimId> automaton_prims_;
};

}  // namespace advocat::xmas
