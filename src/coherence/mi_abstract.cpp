#include "coherence/mi_abstract.hpp"

#include <stdexcept>

#include "automata/builder.hpp"
#include "util/strings.hpp"

namespace advocat::coh {

using aut::AutomatonBuilder;
using xmas::ColorId;
using xmas::ColorSet;
using xmas::Network;
using xmas::PrimId;

namespace {

// Automaton port conventions shared by cache and directory.
constexpr int kNetIn = 0;   // packets delivered by the mesh
constexpr int kCoreIn = 1;  // trigger tokens from the local core
constexpr int kNetOut = 0;  // injected packets

xmas::Automaton build_cache(Network& net, int c, int dir) {
  auto& colors = net.colors();
  const ColorId get = colors.intern(kGet, c, dir);
  const ColorId put = colors.intern(kPut, c, dir);
  const ColorId inv = colors.intern(kInv, dir, c);
  const ColorId ack = colors.intern(kAck, dir, c);
  const ColorId miss = colors.intern(kMiss, c, c);
  const ColorId repl = colors.intern(kRepl, c, c);

  AutomatonBuilder b(util::cat("cache", c), {"I", "M", "MI"});
  b.in_ports(2).out_ports(1).initial("I");
  b.on("I", kCoreIn, miss).emit(kNetOut, get).go("M").label("I:miss/get!");
  b.on("M", kCoreIn, repl).emit(kNetOut, put).go("MI").label("M:repl/put!");
  b.on("M", kNetIn, inv).emit(kNetOut, put).go("MI").label("M:inv?/put!");
  b.on("MI", kNetIn, inv).go("MI").label("MI:inv?/drop");
  b.on("I", kNetIn, inv).go("I").label("I:inv?/drop");
  b.on("MI", kNetIn, ack).go("I").label("MI:ack?");
  return b.build();
}

xmas::Automaton build_directory(Network& net, int dir,
                                const std::vector<int>& caches) {
  auto& colors = net.colors();
  const ColorId tok = colors.intern(kTok, dir, dir);

  std::vector<std::string> states = {"I"};
  for (int c : caches) states.push_back(util::cat("M(", c, ")"));
  for (int c : caches) states.push_back(util::cat("MI(", c, ")"));

  AutomatonBuilder b("dir", states);
  b.in_ports(2).out_ports(1).initial("I");
  for (int c : caches) {
    const ColorId get = colors.intern(kGet, c, dir);
    const ColorId put = colors.intern(kPut, c, dir);
    const ColorId inv = colors.intern(kInv, dir, c);
    const ColorId ack = colors.intern(kAck, dir, c);
    const std::string m = util::cat("M(", c, ")");
    const std::string mi = util::cat("MI(", c, ")");
    b.on("I", kNetIn, get).go(m).label(util::cat("I:get", c, "?"));
    b.on(m, kCoreIn, tok).emit(kNetOut, inv).go(m).label(
        util::cat("M", c, ":tok/inv!"));
    b.on(m, kNetIn, put).go(mi).label(util::cat("M", c, ":put?"));
    b.on(mi, kCoreIn, tok).emit(kNetOut, ack).go("I").label(
        util::cat("MI", c, ":tok/ack!"));
  }
  return b.build();
}

}  // namespace

int mi_abstract_vc_class(const xmas::ColorData& color) {
  // Requests travel cache→dir, responses dir→cache.
  return (color.type == kGet || color.type == kPut) ? 0 : 1;
}

int mi_abstract_vc_class_by_type(const xmas::ColorData& color) {
  if (color.type == kGet) return 0;
  if (color.type == kPut) return 1;
  if (color.type == kInv) return 2;
  return 3;  // ack
}

MiAbstractSystem build_mi_abstract(const MiAbstractConfig& config) {
  MiAbstractSystem sys;
  Network& net = sys.net;
  const int nodes = config.width * config.height;
  sys.directory_node =
      config.directory_node < 0 ? nodes - 1 : config.directory_node;
  if (sys.directory_node >= nodes)
    throw std::invalid_argument("directory node outside mesh");

  for (int n = 0; n < nodes; ++n) {
    if (n != sys.directory_node) sys.cache_nodes.push_back(n);
  }

  // Automata + trigger sources, one per node.
  std::vector<noc::NodeHook> hooks(static_cast<std::size_t>(nodes));
  sys.automaton_of_node.assign(static_cast<std::size_t>(nodes), -1);
  for (int n = 0; n < nodes; ++n) {
    xmas::Automaton a =
        n == sys.directory_node
            ? build_directory(net, n, sys.cache_nodes)
            : build_cache(net, n, sys.directory_node);
    const PrimId prim = net.add_automaton(std::move(a));
    sys.automaton_of_node[static_cast<std::size_t>(n)] =
        net.prim(prim).automaton;
    hooks[static_cast<std::size_t>(n)] = noc::NodeHook{prim, kNetIn, kNetOut};

    ColorSet trigger_colors;
    if (n == sys.directory_node) {
      xmas::set_insert(trigger_colors, net.colors().intern(kTok, n, n));
    } else {
      xmas::set_insert(trigger_colors, net.colors().intern(kMiss, n, n));
      xmas::set_insert(trigger_colors, net.colors().intern(kRepl, n, n));
    }
    const PrimId src =
        net.add_source(util::cat("core", n), std::move(trigger_colors));
    net.connect(src, 0, prim, kCoreIn);
  }

  noc::MeshConfig mesh;
  mesh.width = config.width;
  mesh.height = config.height;
  mesh.link_capacity = config.queue_capacity;
  mesh.num_vcs = config.num_vcs;
  if (config.num_vcs == 2) mesh.vc_of = mi_abstract_vc_class;
  else if (config.num_vcs > 2) mesh.vc_of = mi_abstract_vc_class_by_type;
  sys.mesh_stats = noc::build_mesh(net, mesh, hooks);
  return sys;
}

}  // namespace advocat::coh
