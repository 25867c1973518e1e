// Executable semantics for xMAS networks with IO automata.
//
// The simulator enumerates *transfer events*: the minimal sets of
// simultaneous channel transfers implied by the combinational primitives
// (a fork transfers with both outputs, a join with both inputs, an
// automaton transition consumes and emits atomically). One event moves the
// state; interleaving events over-approximates the synchronous semantics
// for reachability of quiescent states, which is what the deadlock
// confirmation needs (this plays the role UPPAAL plays in the paper).
//
// Storage lives only in queues and automata: a state is the queue contents
// plus the automaton states. Sources inject nondeterministically; merges
// arbitrate by which event is chosen; bag queues (fifo == false) offer any
// stored packet, modelling the paper's stall-and-requeue consumption.
//
// Packed states. The searches (sim::explore, deadlock::replay_claims)
// store every visited state as one contiguous buffer of fixed-width
// elements: the queue lengths (in queue order), then each queue's colours
// front first, then the automaton states. The element width is chosen once
// per Simulator as the fewest bytes (1, 2 or 4) that hold every colour id,
// every queue capacity and every automaton state index — one byte on the
// MI meshes. Equal states have equal bytes, so a visited set hashes and
// compares raw buffers (sim::StateSet). sim::State is the decoded form
// used for witnesses, describe() and tests.
//
// Successor enumeration. sim::Successors enumerates the events of a packed
// state depth first into one reused stack of pops/pushes/moves, through
// non-owning callbacks, and builds each successor straight into a reused
// buffer: no allocation per state or per event. Event labels (`src!c`,
// `q>c`) are built on demand from (initiator, colour) by label().
// Simulator::events() is a wrapper over the same enumerator.
//
// Only the work that depends on the state is done per state. Switches,
// functions and merges hold nothing, so a packet of colour d on channel c
// always takes the same path through them: an enumerator resolves each
// (channel, colour) once, on first use, to the first primitive whose
// answer depends on the state (a queue, sink, automaton, fork or join), the
// colour that arrives there and the number of hops it took, which still
// counts towards the depth cut. A fair source wired to an automaton keeps
// one list per state of that automaton of the colours that have a firing
// there, in source-colour order; a queue offers each distinct stored
// colour once (found with a generation stamp), and neither starts a
// transfer whose resolved target is a full queue or an automaton with no
// firing. The network's std::function parameters are called once per
// argument: an enumerator memoises switch routes and function images per
// (primitive, colour), and each automaton's firings per (state, in-port,
// colour) as (target state, emission) lists in transition order, so the
// enumeration order is the same as calling them afresh. Every colour a
// route carries is checked when the route is resolved: one outside the
// network's colour table throws std::out_of_range, whether it then reaches
// a switch, function, automaton, queue or sink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "xmas/network.hpp"

namespace advocat::sim {

struct State {
  /// Per queue (in Network queue order): stored colors, front first.
  std::vector<std::vector<xmas::ColorId>> queues;
  /// Per automaton: current state index.
  std::vector<int> aut_states;

  bool operator==(const State&) const = default;
};

/// Structured summary of what one event does to the state. Positions in
/// `pops` refer to the pre-event state; queue ordinals are the dense
/// Simulator indices (see Simulator::queue_prim / ordinal_of).
struct Effects {
  /// (queue ordinal, position) removals; positions refer to the pre-event
  /// state.
  std::vector<std::pair<int, int>> pops;
  std::vector<std::pair<int, xmas::ColorId>> pushes;  // (queue ordinal, color)
  std::vector<std::pair<int, int>> moves;  // (automaton index, target state)
};

struct Event {
  std::string label;
  /// The storage producer that initiated the transfer: a fair source or a
  /// queue (PrimId into the network).
  xmas::PrimId initiator = -1;
  /// What the event pops, pushes, and which automata it moves — the
  /// machine-readable counterpart of `label`.
  Effects effects;
  State next;
};

/// One enumerated event, valid only inside the Successors callback.
struct Step {
  xmas::PrimId initiator;
  /// The colour the initiator injects (source) or offers (queue); with the
  /// initiator it names the event (Simulator::label).
  xmas::ColorId color;
  const Effects& effects;
  /// The packed successor state.
  std::span<const std::uint8_t> next;
};

class Simulator {
 public:
  explicit Simulator(const xmas::Network& net);

  [[nodiscard]] State initial() const;
  /// All one-event successors (may contain duplicate states).
  [[nodiscard]] std::vector<Event> events(const State& s) const;
  /// A quiescent state (no events) counts as a deadlock only when
  /// something wants to move: a fair source exists (it always eventually
  /// wants to inject and is permanently refused) or a packet is stranded
  /// in a queue. Dead-source networks that simply ran dry are quiescent,
  /// not deadlocked — matching the SMT deadlock condition.
  [[nodiscard]] bool quiescence_is_deadlock(const State& s) const {
    if (!fair_sources_.empty()) return true;
    for (const auto& q : s.queues) {
      if (!q.empty()) return true;
    }
    return false;
  }
  /// True iff no transfer event is possible and the state counts as a
  /// deadlock (see quiescence_is_deadlock).
  [[nodiscard]] bool is_deadlock(const State& s) const {
    return events(s).empty() && quiescence_is_deadlock(s);
  }

  [[nodiscard]] std::string describe(const State& s) const;
  /// Label of the event `initiator` starts with `color`: "src!c" for a
  /// source injection, "q>c" for a queue transfer.
  [[nodiscard]] std::string label(xmas::PrimId initiator,
                                  xmas::ColorId color) const;

  [[nodiscard]] const xmas::Network& net() const { return net_; }

  // Queue ordinal mapping (State::queues index <-> network PrimId).
  [[nodiscard]] std::size_t num_queues() const { return queue_ids_.size(); }
  [[nodiscard]] xmas::PrimId queue_prim(int ordinal) const {
    return queue_ids_.at(static_cast<std::size_t>(ordinal));
  }
  /// Dense queue index of `p`, or -1 when `p` is not a queue.
  [[nodiscard]] int ordinal_of(xmas::PrimId p) const {
    return queue_ordinal_.at(static_cast<std::size_t>(p));
  }

  // ---- packed encoding (see file comment)
  /// Bytes per packed element: 1, 2 or 4.
  [[nodiscard]] unsigned element_bytes() const { return width_; }
  /// Replaces `out` with the packed form of `s`. Throws
  /// std::invalid_argument when `s` does not fit the network: wrong
  /// shape, a queue over its capacity, an unknown colour or automaton
  /// state.
  void pack(const State& s, std::vector<std::uint8_t>& out) const;
  [[nodiscard]] State unpack(const std::uint8_t* packed) const;

 private:
  friend class Successors;

  const xmas::Network& net_;
  std::vector<xmas::PrimId> fair_sources_;  // in network order
  std::vector<int> queue_ordinal_;          // PrimId -> dense queue index (-1)
  std::vector<xmas::PrimId> queue_ids_;     // dense queue index -> PrimId
  std::vector<std::size_t> capacity_;       // dense queue index -> capacity
  std::vector<bool> fifo_;                  // dense queue index -> FIFO?
  unsigned width_ = 1;
};

/// Enumerates the events of packed states in a fixed order: fair sources
/// (network order) by colour, then queues (ordinal order) by offered
/// colour, each through the depth-first expansion of the combinational
/// fabric. One instance reuses its buffers across calls; it is not
/// thread-safe.
class Successors {
 public:
  explicit Successors(const Simulator& sim);

  /// Calls `f(const Step&)` for every feasible event of `packed` and
  /// returns their number. `packed` is copied first, so it may point into
  /// a container that `f` grows.
  template <class F>
  std::size_t for_each(const std::uint8_t* packed, F&& f) {
    return run(packed, Ref<void(const Step&)>(f));
  }

  /// Colour stored at position `pos` of queue `q` in the state being
  /// expanded (valid inside the for_each callback).
  [[nodiscard]] xmas::ColorId stored(int q, int pos) const;

 private:
  /// Non-owning reference to a callable (the callable outlives the call).
  template <class Sig>
  class Ref;
  template <class R, class... A>
  class Ref<R(A...)> {
   public:
    template <class F>
    explicit Ref(F& f)
        : obj_(const_cast<void*>(static_cast<const void*>(&f))),
          call_([](void* o, A... a) -> R {
            return (*static_cast<F*>(o))(a...);
          }) {}
    R operator()(A... a) const { return call_(obj_, a...); }

   private:
    void* obj_;
    R (*call_)(void*, A...);
  };
  using Then = Ref<void()>;
  using OfferThen = Ref<void(xmas::ColorId)>;

  /// Where a packet of some colour on some channel ends up after the
  /// switches, functions and merges behind it: the first primitive whose
  /// answer depends on the state.
  struct Route {
    enum class To : std::uint8_t { Dead, Queue, Sink, Automaton, Fork, Join };
    To to = To::Dead;
    /// Function/Switch/Merge hops to the target; -1 until resolved.
    std::int8_t hops = -1;
    /// The target's in-port.
    std::int16_t port = 0;
    /// Queue ordinal, automaton index, or the fork's or join's PrimId.
    std::int32_t target = 0;
    /// The colour that arrives at the target.
    xmas::ColorId color = xmas::kNoColor;
  };
  /// A range of a memo pool; count -1 until computed.
  struct Range {
    std::uint32_t first = 0;
    std::int32_t count = -1;
  };
  /// A fair source. When it is wired straight to an automaton (`automaton`
  /// >= 0), colour_lists_[lists + s] holds its colours that have a firing
  /// in the automaton's state s; otherwise colour_lists_[lists] holds all
  /// its colours.
  struct Injector {
    xmas::PrimId id = -1;
    xmas::ChanId out = xmas::kNoChan;
    int automaton = -1;
    int port = 0;
    std::size_t lists = 0;
  };

  std::size_t run(const std::uint8_t* packed, Ref<void(const Step&)> f);
  /// Ways the target side of channel `c` can absorb a packet of colour
  /// `d`: each one leaves its effects on the stack while `k` runs.
  void accepts(xmas::ChanId c, xmas::ColorId d, int depth, Then k) {
    deliver(route(c, d), depth, k);
  }
  /// accepts() past the resolved hops of `r`.
  void deliver(Route r, int depth, Then k);
  /// Packets the initiator side of channel `c` can present right now,
  /// likewise.
  void offers(xmas::ChanId c, int depth, OfferThen k);
  /// The resolved route of colour `d` on channel `c` (resolved on first
  /// use; throws std::out_of_range for a colour outside the table).
  Route route(xmas::ChanId c, xmas::ColorId d);
  /// False when `r` leads nowhere in the current state: no route, a full
  /// queue, or an automaton with no firing.
  bool may_take(const Route& r);
  /// The colours fair source `s` may inject in the current state.
  std::span<const xmas::ColorId> injectable(const Injector& s);
  /// Checks the stacked effects are jointly feasible, builds the successor
  /// and hands it to the callback.
  void emit();
  [[nodiscard]] std::uint32_t load(std::size_t index) const;
  /// `p.route(d)` of a switch or `p.func(d)` of a function `id`, memoised.
  std::int32_t mapped(xmas::PrimId id, const xmas::Primitive& p,
                      xmas::ColorId d);
  /// One transition automaton `a` can take in `state` consuming colour d
  /// on in-port `port`: its target state and its emission, if any.
  struct Firing {
    int to = 0;
    bool emits = false;
    int port = 0;
    xmas::ColorId color = xmas::kNoColor;
  };
  /// The firings of (a, state, port, d) in transition order, as a range
  /// of firings_ (computed on first use).
  Range firings(int a, int state, int port, xmas::ColorId d);
  [[nodiscard]] std::size_t colour_index(xmas::ColorId d) const;

  const Simulator& sim_;
  const xmas::Network& net_;
  std::vector<Injector> injectors_;       // the fair sources, network order
  std::vector<xmas::PrimId> automaton_ids_;  // automaton index -> PrimId
  std::vector<std::uint8_t> cur_;    // packed state being expanded
  std::vector<std::uint32_t> len_;   // its queue lengths
  std::vector<std::size_t> start_;   // element index of each queue's front
  std::size_t aut_start_ = 0;        // element index of the automaton states
  // The positions of the first occurrence of each distinct colour every
  // queue offers in the current state: offer_begin_[q] to
  // offer_begin_[q + 1] in offer_pos_. seen_ holds a colour's stamp.
  std::vector<std::uint32_t> offer_pos_;
  std::vector<std::size_t> offer_begin_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
  Effects fx_;                       // the event under construction
  std::vector<int> touched_;         // queues the event pops or pushes
  std::vector<std::uint8_t> next_;   // the successor being built
  xmas::PrimId initiator_ = -1;
  xmas::ColorId color_ = xmas::kNoColor;
  Ref<void(const Step&)>* sink_ = nullptr;
  std::size_t emitted_ = 0;
  // Memoised network parameters, filled on first use.
  std::vector<std::int32_t> route_row_;     // per channel: first route, or -1
  std::vector<Route> routes_;               // per (used channel, colour)
  std::vector<Range> colour_lists_;         // per (injector, automaton state)
  std::vector<xmas::ColorId> colour_pool_;
  std::vector<std::int32_t> mapped_;        // per (primitive, colour)
  std::vector<std::size_t> firing_base_;    // per automaton
  std::vector<Range> firing_index_;         // per (automaton, state, port, colour)
  std::vector<Firing> firings_;
  static constexpr int kMaxDepth = 64;
};

}  // namespace advocat::sim
