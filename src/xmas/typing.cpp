#include "xmas/typing.hpp"

#include <set>

#include "util/strings.hpp"

namespace advocat::xmas {

Typing Typing::derive(const Network& net) {
  Typing typing;
  auto& T = typing.sets_;
  T.assign(net.num_channels(), {});
  // A set: the fixpoint revisits every primitive on each sweep.
  std::set<Skip> skipped;
  const auto num_colors = static_cast<ColorId>(net.colors().size());
  auto color_name = [&](ColorId d) { return net.colors().name(d); };
  // Unwired ports: an in-port reads the empty set, and an out-port writes
  // to `dropped`, which nothing reads (it only grows, so the fixpoint ends).
  const ColorSet none;
  ColorSet dropped;

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t id = 0; id < net.num_prims(); ++id) {
      const Primitive& p = net.prims()[id];
      auto in = [&](std::size_t port) -> const ColorSet& {
        const ChanId c = p.in[port];
        return c == kNoChan ? none : T[static_cast<std::size_t>(c)];
      };
      auto out = [&](std::size_t port) -> ColorSet& {
        const ChanId c = p.out[port];
        return c == kNoChan ? dropped : T[static_cast<std::size_t>(c)];
      };
      auto skip = [&](std::string message) {
        skipped.insert(Skip{static_cast<PrimId>(id), std::move(message)});
      };
      switch (p.kind) {
        case PrimKind::Source:
          for (ColorId d : p.source_colors) {
            if (d < 0 || d >= num_colors) {
              skip(util::cat("source color ", d, " outside the color table"));
              continue;
            }
            changed |= set_insert(out(0), d);
          }
          break;
        case PrimKind::Queue:
          changed |= set_union(out(0), in(0));
          break;
        case PrimKind::Function:
          for (ColorId d : in(0)) {
            const ColorId f = p.func(d);
            if (f < 0 || f >= num_colors) {
              skip(util::cat("func(", color_name(d), ") = ", f,
                             " outside the color table [0, ", num_colors,
                             ")"));
              continue;
            }
            changed |= set_insert(out(0), f);
          }
          break;
        case PrimKind::Fork:
          changed |= set_union(out(0), in(0));
          changed |= set_union(out(1), in(0));
          break;
        case PrimKind::Join:
          changed |= set_union(out(0), in(0));
          break;
        case PrimKind::Switch:
          for (ColorId d : in(0)) {
            const int port = p.route(d);
            if (port < 0 || static_cast<std::size_t>(port) >= p.out.size()) {
              skip(util::cat("route(", color_name(d), ") = ", port,
                             " outside the out-ports [0, ", p.out.size(),
                             ")"));
              continue;
            }
            changed |= set_insert(out(static_cast<std::size_t>(port)), d);
          }
          break;
        case PrimKind::Merge:
          for (std::size_t port = 0; port < p.in.size(); ++port) {
            changed |= set_union(out(0), in(port));
          }
          break;
        case PrimKind::Automaton: {
          const Automaton& a = net.automaton_of(p);
          for (const AutTransition& t : a.transitions) {
            for (int i = 0; i < a.num_in; ++i) {
              for (ColorId d : in(static_cast<std::size_t>(i))) {
                if (!t.guard(i, d)) continue;
                const auto em = t.transform(i, d);
                if (!em) continue;
                const auto [o, d2] = *em;
                if (o < 0 || static_cast<std::size_t>(o) >= p.out.size()) {
                  skip(util::cat("transition ", t.label, " emits on out-port ",
                                 o, " outside [0, ", p.out.size(), ")"));
                  continue;
                }
                if (d2 < 0 || d2 >= num_colors) {
                  skip(util::cat("transition ", t.label, " emits color ", d2,
                                 " outside the color table"));
                  continue;
                }
                changed |= set_insert(out(static_cast<std::size_t>(o)), d2);
              }
            }
          }
          break;
        }
        case PrimKind::Sink:
          break;
      }
    }
  }
  typing.skipped_.assign(skipped.begin(), skipped.end());
  return typing;
}

std::size_t Typing::num_pairs() const {
  std::size_t n = 0;
  for (const ColorSet& s : sets_) n += s.size();
  return n;
}

}  // namespace advocat::xmas
