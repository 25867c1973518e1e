#include "noc/mesh.hpp"

#include <memory>
#include <stdexcept>

#include "util/strings.hpp"

namespace advocat::noc {

using xmas::ChanId;
using xmas::ColorId;
using xmas::Network;
using xmas::PrimId;

namespace {

constexpr const char* kDirNames[kNumDirs] = {"E", "W", "N", "S"};

int opposite(int d) {
  switch (d) {
    case East: return West;
    case West: return East;
    case North: return South;
    case South: return North;
  }
  return -1;
}

/// Neighbor node id in direction d, or -1 outside the mesh.
int neighbor(int width, int height, int n, int d) {
  const int x = n % width;
  const int y = n / width;
  switch (d) {
    case East: return x + 1 < width ? node_id(width, x + 1, y) : -1;
    case West: return x - 1 >= 0 ? node_id(width, x - 1, y) : -1;
    case North: return y - 1 >= 0 ? node_id(width, x, y - 1) : -1;
    case South: return y + 1 < height ? node_id(width, x, y + 1) : -1;
  }
  return -1;
}

}  // namespace

int xy_next_hop(int width, int from, int dst) {
  const int fx = from % width;
  const int fy = from / width;
  const int dx = dst % width;
  const int dy = dst / width;
  if (fx < dx) return East;
  if (fx > dx) return West;
  if (fy > dy) return North;
  if (fy < dy) return South;
  return -1;  // local
}

MeshStats build_mesh(Network& net, const MeshConfig& config,
                     const std::vector<NodeHook>& hooks) {
  const int w = config.width;
  const int h = config.height;
  const int nodes = w * h;
  const int vcs = config.num_vcs;
  if (static_cast<int>(hooks.size()) != nodes)
    throw std::invalid_argument("build_mesh: one hook per node required");
  if (vcs > 1 && !config.vc_of)
    throw std::invalid_argument("build_mesh: vc_of required with VCs");

  MeshStats stats;
  // Snapshot per-color routing data. The routing closures stored inside
  // switch primitives must not reference the Network, the MeshConfig, or
  // any other local (the network may be moved and the config dies with this
  // call). Colors interned after the mesh is built are unroutable, which is
  // the right default.
  auto color_dst = std::make_shared<std::vector<int>>();
  auto color_vc = std::make_shared<std::vector<int>>();
  for (std::size_t c = 0; c < net.colors().size(); ++c) {
    const xmas::ColorData& data = net.colors().get(static_cast<ColorId>(c));
    color_dst->push_back(data.dst);
    color_vc->push_back(vcs == 1 ? 0 : config.vc_of(data));
  }
  auto vc_class = [color_vc](ColorId d) {
    return static_cast<std::size_t>(d) < color_vc->size()
               ? (*color_vc)[static_cast<std::size_t>(d)]
               : 0;
  };

  // Per node: existing directions in canonical order.
  std::vector<std::vector<int>> dirs(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    for (int d = 0; d < kNumDirs; ++d) {
      if (neighbor(w, h, n, d) != -1) dirs[static_cast<std::size_t>(n)].push_back(d);
    }
  }
  // 1. Link input queues in_q[n][d][v] (packets arriving from direction d).
  std::vector<std::vector<std::vector<PrimId>>> in_q(
      static_cast<std::size_t>(nodes),
      std::vector<std::vector<PrimId>>(kNumDirs));
  for (int n = 0; n < nodes; ++n) {
    for (int d : dirs[static_cast<std::size_t>(n)]) {
      for (int v = 0; v < vcs; ++v) {
        std::string name = util::cat("q_", n, "_", kDirNames[d]);
        if (vcs > 1) name += util::cat("_v", v);
        in_q[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)].push_back(
            net.add_queue(name, config.link_capacity, /*fifo=*/false));
        ++stats.queues;
      }
    }
  }

  // 2. Routing switches. A link input queue arriving from direction dd can
  //    continue to any *other* existing direction or terminate locally (XY
  //    routing never U-turns), so its switch has ports
  //    [dirs(n) \ {dd}..., local]. The injection switch fans out to
  //    (direction, vc) pairs plus local.
  struct LinkSwitch {
    PrimId prim = -1;
    std::vector<int> out_dirs;  // port index -> direction
    int local_port = 0;
  };
  // Builds the color->port map for a switch with the given direction ports.
  // Self-contained: captures only the color snapshot vectors (by shared
  // ownership) and plain values.
  auto make_route = [color_dst, color_vc, w](int n, std::vector<int> out_dirs,
                                             int local_port, int stride,
                                             bool add_vc_offset) {
    return [color_dst, color_vc, w, n, out_dirs = std::move(out_dirs),
            local_port, stride, add_vc_offset](ColorId c) {
      if (static_cast<std::size_t>(c) >= color_dst->size()) return -1;
      const int dst = (*color_dst)[static_cast<std::size_t>(c)];
      const int hop = xy_next_hop(w, n, dst);
      if (hop == -1) return local_port;
      for (std::size_t i = 0; i < out_dirs.size(); ++i) {
        if (out_dirs[i] == hop) {
          const int offset =
              add_vc_offset ? (*color_vc)[static_cast<std::size_t>(c)] : 0;
          return static_cast<int>(i) * stride + offset;
        }
      }
      return -1;  // unroutable from this input: never transfers
    };
  };

  std::vector<std::vector<std::vector<LinkSwitch>>> link_sw(
      static_cast<std::size_t>(nodes),
      std::vector<std::vector<LinkSwitch>>(kNumDirs));
  std::vector<LinkSwitch> inj_sw(static_cast<std::size_t>(nodes));
  // Queues that bypass a switch entirely (single-neighbor nodes: all
  // arriving traffic is local) feed the ejection merge directly.
  std::vector<std::vector<std::pair<PrimId, int>>> extra_eject_inputs(
      static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    for (int dd : dirs[static_cast<std::size_t>(n)]) {
      std::vector<int> out_dirs;
      for (int d : dirs[static_cast<std::size_t>(n)]) {
        if (d != dd) out_dirs.push_back(d);
      }
      for (int v = 0; v < vcs; ++v) {
        const PrimId q =
            in_q[static_cast<std::size_t>(n)][static_cast<std::size_t>(dd)][static_cast<std::size_t>(v)];
        LinkSwitch ls;
        if (out_dirs.empty()) {
          // Dead-end node: everything arriving is local; no switch needed.
          extra_eject_inputs[static_cast<std::size_t>(n)].emplace_back(q, 0);
          link_sw[static_cast<std::size_t>(n)][static_cast<std::size_t>(dd)].push_back(ls);
          continue;
        }
        ls.out_dirs = out_dirs;
        ls.local_port = static_cast<int>(out_dirs.size());
        std::string name = util::cat("sw_", n, "_", kDirNames[dd]);
        if (vcs > 1) name += util::cat("_v", v);
        ls.prim = net.add_switch(
            name, static_cast<int>(out_dirs.size()) + 1,
            make_route(n, out_dirs, ls.local_port, 1, false));
        net.connect(q, 0, ls.prim, 0);
        ++stats.switches;
        link_sw[static_cast<std::size_t>(n)][static_cast<std::size_t>(dd)].push_back(ls);
      }
    }
    // Injection switch: ports (dir index * vcs + vc), then local.
    {
      const std::vector<int>& out_dirs = dirs[static_cast<std::size_t>(n)];
      LinkSwitch ls;
      ls.out_dirs = out_dirs;
      ls.local_port = static_cast<int>(out_dirs.size()) * vcs;
      ls.prim = net.add_switch(
          util::cat("sw_", n, "_inj"),
          static_cast<int>(out_dirs.size()) * vcs + 1,
          make_route(n, out_dirs, ls.local_port, vcs, vcs > 1));
      net.connect(hooks[static_cast<std::size_t>(n)].automaton,
                  hooks[static_cast<std::size_t>(n)].net_out_port, ls.prim, 0);
      ++stats.switches;
      inj_sw[static_cast<std::size_t>(n)] = ls;
    }
  }
  auto switch_port_toward = [](const LinkSwitch& ls, int d, int stride,
                               int vc) {
    for (std::size_t i = 0; i < ls.out_dirs.size(); ++i) {
      if (ls.out_dirs[i] == d) return static_cast<int>(i) * stride + vc;
    }
    return -1;
  };

  // 3. Output links: merge (through traffic + injection) into the
  //    neighbor's input queue.
  for (int n = 0; n < nodes; ++n) {
    for (int d : dirs[static_cast<std::size_t>(n)]) {
      const int m = neighbor(w, h, n, d);
      for (int v = 0; v < vcs; ++v) {
        // Producers offering packets toward direction d in class v.
        std::vector<std::pair<PrimId, int>> producers;
        for (int dd : dirs[static_cast<std::size_t>(n)]) {
          if (dd == d) continue;  // XY routing never U-turns
          const LinkSwitch& ls =
              link_sw[static_cast<std::size_t>(n)][static_cast<std::size_t>(dd)][static_cast<std::size_t>(v)];
          if (ls.prim == -1) continue;
          const int port = switch_port_toward(ls, d, 1, 0);
          if (port >= 0) producers.emplace_back(ls.prim, port);
        }
        {
          const LinkSwitch& ls = inj_sw[static_cast<std::size_t>(n)];
          producers.emplace_back(ls.prim, switch_port_toward(ls, d, vcs, v));
        }
        const PrimId dest_q =
            in_q[static_cast<std::size_t>(m)][static_cast<std::size_t>(opposite(d))][static_cast<std::size_t>(v)];
        if (producers.size() == 1) {
          net.connect(producers[0].first, producers[0].second, dest_q, 0);
        } else {
          std::string name = util::cat("mg_", n, "_", kDirNames[d]);
          if (vcs > 1) name += util::cat("_v", v);
          const PrimId mg =
              net.add_merge(name, static_cast<int>(producers.size()));
          for (std::size_t i = 0; i < producers.size(); ++i) {
            net.connect(producers[i].first, producers[i].second, mg,
                        static_cast<int>(i));
          }
          net.connect(mg, 0, dest_q, 0);
          ++stats.merges;
        }
      }
    }
    // Ejection: local ports of all switches into the automaton.
    std::vector<std::pair<PrimId, int>> locals =
        extra_eject_inputs[static_cast<std::size_t>(n)];
    for (int dd : dirs[static_cast<std::size_t>(n)]) {
      for (int v = 0; v < vcs; ++v) {
        const LinkSwitch& ls =
            link_sw[static_cast<std::size_t>(n)][static_cast<std::size_t>(dd)][static_cast<std::size_t>(v)];
        if (ls.prim == -1) continue;
        locals.emplace_back(ls.prim, ls.local_port);
      }
    }
    locals.emplace_back(inj_sw[static_cast<std::size_t>(n)].prim,
                        inj_sw[static_cast<std::size_t>(n)].local_port);
    // Consumer side: the automaton in-port, straight from the link bags.
    const PrimId consumer = hooks[static_cast<std::size_t>(n)].automaton;
    const int consumer_port = hooks[static_cast<std::size_t>(n)].net_in_port;
    if (locals.size() == 1) {
      net.connect(locals[0].first, locals[0].second, consumer, consumer_port);
    } else {
      const PrimId mg = net.add_merge(util::cat("mg_", n, "_ej"),
                                      static_cast<int>(locals.size()));
      for (std::size_t i = 0; i < locals.size(); ++i) {
        net.connect(locals[i].first, locals[i].second, mg, static_cast<int>(i));
      }
      net.connect(mg, 0, consumer, consumer_port);
      ++stats.merges;
    }
  }
  return stats;
}

}  // namespace advocat::noc
