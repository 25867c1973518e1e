// 2D-mesh network-on-chip generator (the paper's case-study fabric).
//
// Store-and-forward wormhole-free switching: every directed link terminates
// in a *bag* input queue at the receiving router; XY (dimension-ordered)
// routing picks the next hop; fair merges arbitrate each output link.
// Protocol packets are delivered through a local merge straight into the
// node's automaton, which may consume any stored packet of a link bag —
// the paper's "stall and move to the end of the queue" semantics.
// Injection has no private queue either: an automaton's emission must win
// space in the first-hop link queue directly (this is what makes the
// paper's Fig. 3 cross-layer deadlock possible).
//
// With num_vcs > 1 every link input queue is replicated per virtual-channel
// class and `vc_of` assigns message colors to classes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "xmas/network.hpp"

namespace advocat::noc {

/// Direction encoding used throughout the mesh builder.
enum Dir : int { East = 0, West = 1, North = 2, South = 3 };
inline constexpr int kNumDirs = 4;

struct MeshConfig {
  int width = 2;
  int height = 2;
  /// Per link input queue. Link queues are bags ("stall and move to the
  /// end of the queue", the paper's semantics): a packet whose next hop or
  /// consumer is unavailable does not block packets behind it.
  std::size_t link_capacity = 2;
  int num_vcs = 1;  ///< 1 = no virtual channels
  /// Maps a color to its VC class in [0, num_vcs); required when
  /// num_vcs > 1.
  std::function<int(const xmas::ColorData&)> vc_of;
};

/// Protocol-side attachment point of one node, created by the protocol
/// layer before the mesh is built.
struct NodeHook {
  xmas::PrimId automaton = -1;
  int net_in_port = 0;   ///< automaton in-port fed by the local merge
  int net_out_port = 0;  ///< automaton out-port that injects packets
};

struct MeshStats {
  std::size_t queues = 0;
  std::size_t switches = 0;
  std::size_t merges = 0;
};

/// Node id of (x, y): y * width + x.
[[nodiscard]] inline int node_id(int width, int x, int y) {
  return y * width + x;
}

/// XY next hop from `from` toward `dst`: a Dir, or -1 when from == dst
/// (local delivery).
[[nodiscard]] int xy_next_hop(int width, int from, int dst);

/// Wires the mesh around `hooks` (one per node, node-id order). Colors
/// routed by the mesh must carry a valid dst field. Returns counts of the
/// fabric primitives added.
MeshStats build_mesh(xmas::Network& net, const MeshConfig& config,
                     const std::vector<NodeHook>& hooks);

}  // namespace advocat::noc
