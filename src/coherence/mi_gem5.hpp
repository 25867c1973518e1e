// GEM5-inspired MI cache-coherence protocol (Section 5, "MI Protocol").
//
// Modelled after the flavor of GEM5's MI_example as the paper describes it:
// cache-to-cache transfer (the directory forwards GetX to the current owner,
// which sends Data directly to the requester), acking/nacking of
// replacements, a notification to the directory upon receiving data, and a
// DMA requester. Eight message types:
//   getx(c→dir)        exclusive request
//   data(x→c)          data response (from directory or from the old owner)
//   data_ack(c→dir)    transfer-complete notification from the new owner
//   fwd_getx(dir→c)#r  forward to owner c on behalf of requester r (tag)
//   putx(c→dir)        replacement writeback
//   wb_ack(dir→c)      writeback accepted
//   wb_nack(dir→c)     writeback rejected (a forward was already in flight)
//   dma_req(d→dir)     DMA access (served with data when the block is idle)
//
// L2 cache automaton (4 stable/transient states; forwards are served from
// every state because data is abstract in this model — serving a stale
// forward is indistinguishable from serving a fresh one, and it keeps every
// wait state linearly balanced for the invariant generator):
//   I  --[miss]      / getx!        --> IM
//   IM --[data?]     / data_ack!    --> M
//   M  --[repl]      / putx!        --> MI
//   M  --[fwd_getx?] / data!(→r)    --> I      (cache-to-cache transfer)
//   MI --[wb_ack?]                  --> I
//   MI --[wb_nack?]                 --> I      (writeback superseded)
//   *  --[fwd_getx?] / data!(→r)    --> *      (serve in place: I, IM, MI)
//
// Directory automaton (1 + 2n states: I, M(c), B(r)):
//   I    --[getx?(r)]          / data!(→r)       --> B(r)
//   I    --[dma_req?(d)]       / data!(→d)       --> I
//   I    --[putx?(c)]          / wb_nack!(→c)    --> I    (superseded)
//   M(x) --[putx?(c), c != x]  / wb_nack!(→c)    --> M(x) (superseded)
//   B(r) --[data_ack?(r)]                        --> M(r)
//   M(c) --[getx?(r)]          / fwd_getx!(→c)#r --> B(r)
//   M(c) --[putx?(c)]          / wb_ack!(→c)     --> I
//
// Unconsumable packets wait in the link bags (the paper's stall &
// requeue): in particular every putx arriving while the directory is busy
// in B(r) simply waits there until the ownership transfer completes. The
// protocol is deadlock-free under synchronous handshaking (checked with
// the explicit-state explorer); on a mesh it needs sufficiently large
// queues, like the abstract protocol (the paper's modified-MI
// observation).
#pragma once

#include <vector>

#include "noc/mesh.hpp"
#include "xmas/network.hpp"

namespace advocat::coh {

inline constexpr const char* kGetX = "getx";
inline constexpr const char* kData = "data";
inline constexpr const char* kDataAck = "data_ack";
inline constexpr const char* kFwdGetX = "fwd_getx";
inline constexpr const char* kPutX = "putx";
inline constexpr const char* kWbAck = "wb_ack";
inline constexpr const char* kWbNack = "wb_nack";
inline constexpr const char* kDmaReq = "dma_req";
inline constexpr const char* kDmaTok = "dma_tok";

struct MiGem5Config {
  int width = 2;
  int height = 2;
  int directory_node = -1;  ///< -1: last node
  /// Node running the DMA requester instead of a cache; -1 disables DMA.
  int dma_node = 0;
  std::size_t queue_capacity = 4;  ///< link queues (bags, stall & requeue)
  /// 1 = no VCs; 3 = request / forward / response classes.
  int num_vcs = 1;
};

struct MiGem5System {
  xmas::Network net;
  int directory_node = 0;
  int dma_node = -1;
  std::vector<int> cache_nodes;
  noc::MeshStats mesh_stats;
};

MiGem5System build_mi_gem5(const MiGem5Config& config);

/// 3-class VC assignment: requests (getx/putx/dma_req/data_ack) = 0,
/// forwards (fwd_getx) = 1, responses (data/wb_ack/wb_nack) = 2.
int mi_gem5_vc_class(const xmas::ColorData& color);

}  // namespace advocat::coh
