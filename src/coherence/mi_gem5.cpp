#include "coherence/mi_gem5.hpp"

#include <stdexcept>
#include <string>

#include "automata/builder.hpp"
#include "util/strings.hpp"

namespace advocat::coh {

using aut::AutomatonBuilder;
using xmas::ColorId;
using xmas::ColorSet;
using xmas::Network;
using xmas::PrimId;

namespace {

constexpr int kNetIn = 0;
constexpr int kCoreIn = 1;
constexpr int kNetOut = 0;

constexpr const char* kMiss = "miss";
constexpr const char* kRepl = "repl";

xmas::Automaton build_cache(Network& net, int c, int dir,
                            const std::vector<int>& requesters) {
  auto& colors = net.colors();
  const ColorId getx = colors.intern(kGetX, c, dir);
  const ColorId putx = colors.intern(kPutX, c, dir);
  const ColorId data_ack = colors.intern(kDataAck, c, dir);
  const ColorId wb_ack = colors.intern(kWbAck, dir, c);
  const ColorId wb_nack = colors.intern(kWbNack, dir, c);
  const ColorId miss = colors.intern(kMiss, c, c);
  const ColorId repl = colors.intern(kRepl, c, c);

  // Data may come from the directory or any other cache.
  ColorSet datas;
  xmas::set_insert(datas, colors.intern(kData, dir, c));
  for (int r : requesters) {
    if (r != c) xmas::set_insert(datas, colors.intern(kData, r, c));
  }
  // Forwards carry the requester in the tag field. One transition per
  // (state, requester) pair below — a single transition producing many data
  // colors would coarsen the invariant generator's out-channel classes and
  // lose the per-requester directory balance.
  std::vector<std::pair<ColorId, ColorId>> fwd_to_data;
  for (int r : requesters) {
    if (r == c) continue;
    fwd_to_data.emplace_back(colors.intern(kFwdGetX, dir, c, r),
                             colors.intern(kData, c, r));
  }

  // State meanings: IM = awaiting data; MI = awaiting the writeback
  // response (wb_ack, or wb_nack when the writeback was superseded by a
  // forward). Forwards are served from *any* state (data is abstract in
  // this model, so a stale forward is answered the same way); this keeps
  // every wait state linearly balanced — e.g. MI = #putx + #wb_ack +
  // #wb_nack en route — which is what lets the flow method prune all
  // unreachable deadlock candidates.
  AutomatonBuilder b(util::cat("cache", c), {"I", "IM", "M", "MI"});
  b.in_ports(2).out_ports(1).initial("I");
  b.on("I", kCoreIn, miss).emit(kNetOut, getx).go("IM").label("I:miss/getx!");
  b.on_any("IM", kNetIn, datas)
      .emit(kNetOut, data_ack)
      .go("M")
      .label("IM:data?/data_ack!");
  b.on("M", kCoreIn, repl).emit(kNetOut, putx).go("MI").label("M:repl/putx!");
  b.on("MI", kNetIn, wb_ack).go("I").label("MI:wb_ack?");
  b.on("MI", kNetIn, wb_nack).go("I").label("MI:wb_nack?");
  for (const auto& [fwd, data] : fwd_to_data) {
    const int r = colors.get(fwd).tag;
    b.on("M", kNetIn, fwd).emit(kNetOut, data).go("I").label(
        util::cat("M:fwd", r, "?/data!"));
    b.on("MI", kNetIn, fwd).emit(kNetOut, data).go("MI").label(
        util::cat("MI:fwd", r, "?/data!"));
    b.on("I", kNetIn, fwd).emit(kNetOut, data).go("I").label(
        util::cat("I:fwd", r, "?/data!"));
    b.on("IM", kNetIn, fwd).emit(kNetOut, data).go("IM").label(
        util::cat("IM:fwd", r, "?/data!"));
  }
  return b.build();
}

xmas::Automaton build_dma(Network& net, int d, int dir) {
  auto& colors = net.colors();
  const ColorId req = colors.intern(kDmaReq, d, dir);
  const ColorId data = colors.intern(kData, dir, d);
  const ColorId tok = colors.intern(kDmaTok, d, d);
  AutomatonBuilder b(util::cat("dma", d), {"I", "W"});
  b.in_ports(2).out_ports(1).initial("I");
  b.on("I", kCoreIn, tok).emit(kNetOut, req).go("W").label("I:tok/dma_req!");
  b.on("W", kNetIn, data).go("I").label("W:data?");
  return b.build();
}

xmas::Automaton build_directory(Network& net, int dir,
                                const std::vector<int>& caches, int dma) {
  auto& colors = net.colors();
  std::vector<std::string> states = {"I"};
  for (int c : caches) states.push_back(util::cat("M(", c, ")"));
  for (int r : caches) states.push_back(util::cat("B(", r, ")"));

  AutomatonBuilder b("dir", states);
  b.in_ports(1).out_ports(1).initial("I");

  for (int r : caches) {
    const ColorId getx = colors.intern(kGetX, r, dir);
    const ColorId data = colors.intern(kData, dir, r);
    const ColorId data_ack = colors.intern(kDataAck, r, dir);
    const std::string br = util::cat("B(", r, ")");
    b.on("I", kNetIn, getx).emit(kNetOut, data).go(br).label(
        util::cat("I:getx", r, "?/data!"));
    b.on(br, kNetIn, data_ack).go(util::cat("M(", r, ")")).label(
        util::cat("B", r, ":data_ack?"));
    // While busy, every putx waits in the link bags; it is answered
    // (acked or nacked as superseded) once the transfer completes.
  }
  for (int c : caches) {
    const std::string mc = util::cat("M(", c, ")");
    const ColorId putx = colors.intern(kPutX, c, dir);
    const ColorId wb_ack = colors.intern(kWbAck, dir, c);
    const ColorId wb_nack = colors.intern(kWbNack, dir, c);
    b.on(mc, kNetIn, putx).emit(kNetOut, wb_ack).go("I").label(
        util::cat("M", c, ":putx?/wb_ack!"));
    // A putx reaching the directory when c is no longer the owner was
    // superseded by a forward; reject it (the block moved on).
    b.on("I", kNetIn, putx).emit(kNetOut, wb_nack).go("I").label(
        util::cat("I:putx", c, "?/wb_nack!"));
    for (int x : caches) {
      if (x == c) continue;
      const std::string mx = util::cat("M(", x, ")");
      b.on(mx, kNetIn, putx).emit(kNetOut, wb_nack).go(mx).label(
          util::cat("M", x, ":putx", c, "?/wb_nack!"));
    }
    // Forward GetX from requester r to owner c.
    for (int r : caches) {
      if (r == c) continue;
      const ColorId getx_r = colors.intern(kGetX, r, dir);
      const ColorId fwd = colors.intern(kFwdGetX, dir, c, r);
      b.on(mc, kNetIn, getx_r).emit(kNetOut, fwd).go(util::cat("B(", r, ")"))
          .label(util::cat("M", c, ":getx", r, "?/fwd!"));
    }
  }
  if (dma >= 0) {
    const ColorId req = colors.intern(kDmaReq, dma, dir);
    const ColorId data = colors.intern(kData, dir, dma);
    b.on("I", kNetIn, req).emit(kNetOut, data).go("I").label(
        "I:dma_req?/data!");
  }
  return b.build();
}

}  // namespace

int mi_gem5_vc_class(const xmas::ColorData& color) {
  if (color.type == kFwdGetX) return 1;
  if (color.type == kData || color.type == kWbAck || color.type == kWbNack)
    return 2;
  return 0;  // getx, putx, data_ack, dma_req
}

MiGem5System build_mi_gem5(const MiGem5Config& config) {
  MiGem5System sys;
  Network& net = sys.net;
  const int nodes = config.width * config.height;
  sys.directory_node =
      config.directory_node < 0 ? nodes - 1 : config.directory_node;
  sys.dma_node = config.dma_node;
  if (sys.directory_node >= nodes)
    throw std::invalid_argument("directory node outside mesh");
  if (sys.dma_node >= nodes || sys.dma_node == sys.directory_node)
    throw std::invalid_argument("bad dma node");

  for (int n = 0; n < nodes; ++n) {
    if (n != sys.directory_node && n != sys.dma_node)
      sys.cache_nodes.push_back(n);
  }

  std::vector<noc::NodeHook> hooks(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    xmas::Automaton a;
    ColorSet trigger;
    int core_port = kCoreIn;
    if (n == sys.directory_node) {
      a = build_directory(net, n, sys.cache_nodes, sys.dma_node);
      core_port = -1;  // the directory is purely reactive
    } else if (n == sys.dma_node) {
      a = build_dma(net, n, sys.directory_node);
      xmas::set_insert(trigger, net.colors().intern(kDmaTok, n, n));
    } else {
      a = build_cache(net, n, sys.directory_node, sys.cache_nodes);
      xmas::set_insert(trigger, net.colors().intern(kMiss, n, n));
      xmas::set_insert(trigger, net.colors().intern(kRepl, n, n));
    }
    const PrimId prim = net.add_automaton(std::move(a));
    hooks[static_cast<std::size_t>(n)] = noc::NodeHook{prim, kNetIn, kNetOut};
    if (core_port >= 0) {
      const PrimId src =
          net.add_source(util::cat("core", n), std::move(trigger));
      net.connect(src, 0, prim, core_port);
    }
  }

  noc::MeshConfig mesh;
  mesh.width = config.width;
  mesh.height = config.height;
  mesh.link_capacity = config.queue_capacity;
  mesh.num_vcs = config.num_vcs;
  if (config.num_vcs > 1) mesh.vc_of = mi_gem5_vc_class;
  sys.mesh_stats = noc::build_mesh(net, mesh, hooks);
  return sys;
}

}  // namespace advocat::coh
