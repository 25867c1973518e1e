// The paper's artificial directory-based MI protocol (Fig. 2).
//
// Per cache node (state I / M / MI):
//   I  --[core miss]  / get!(c→dir) --> M
//   M  --[core repl]  / put!(c→dir) --> MI
//   M  --[net inv]    / put!(c→dir) --> MI
//   MI --[net inv]    / ⊥           --> MI   (drop a crossing invalidate)
//   I  --[net inv]    / ⊥           --> I    (drop a stale invalidate)
//   MI --[net ack]    / ⊥           --> I
// Directory (state I / M(c) / MI(c), parameterized by the owning cache):
//   I     --[net get(c)] / ⊥            --> M(c)
//   M(c)  --[core tok]   / inv!(dir→c)  --> M(c)   (may invalidate any time,
//                                                   repeatedly)
//   M(c)  --[net put(c)] / ⊥            --> MI(c)
//   MI(c) --[core tok]   / ack!(dir→c)  --> I
//
// "Core" events come from a fair trigger source per node. This protocol is
// deadlock-free under synchronous handshaking but exhibits the paper's
// Fig. 3 cross-layer deadlock on a mesh when queues are too small.
#pragma once

#include <string>
#include <vector>

#include "noc/mesh.hpp"
#include "xmas/network.hpp"

namespace advocat::coh {

/// Message/trigger type names used by the abstract protocol.
inline constexpr const char* kGet = "get";
inline constexpr const char* kPut = "put";
inline constexpr const char* kInv = "inv";
inline constexpr const char* kAck = "ack";
inline constexpr const char* kMiss = "miss";
inline constexpr const char* kRepl = "repl";
inline constexpr const char* kTok = "tok";

struct MiAbstractConfig {
  int width = 2;
  int height = 2;
  int directory_node = -1;  ///< -1: last node (lower-right)
  std::size_t queue_capacity = 2;  ///< link queues (bags, stall & requeue)
  /// 1 = no VCs; 2 = request (cache→dir) vs response (dir→cache) classes;
  /// 4 = one class per message type (the paper's "VCs for different message
  /// types", after Dally & Seitz).
  int num_vcs = 1;
};

struct MiAbstractSystem {
  xmas::Network net;
  int directory_node = 0;
  std::vector<int> cache_nodes;
  /// Automaton indices (into net.automata()) per node id; directory
  /// included.
  std::vector<int> automaton_of_node;
  noc::MeshStats mesh_stats;
};

/// Builds protocol automata + trigger sources + mesh. The returned system
/// owns the network.
MiAbstractSystem build_mi_abstract(const MiAbstractConfig& config);

/// VC class used when num_vcs == 2: 0 for cache→dir requests, 1 for
/// dir→cache messages (matches Dally-style message-class separation).
int mi_abstract_vc_class(const xmas::ColorData& color);

/// VC class used when num_vcs == 4: one class per message type
/// (get/put/inv/ack).
int mi_abstract_vc_class_by_type(const xmas::ColorData& color);

}  // namespace advocat::coh
