// Materializes a path-level simulation (§3.2): the sampled path becomes a
// parking-lot topology whose first/last chain nodes are the original
// source/destination hosts; background flows enter and leave through
// synthetic access links sized to their original endpoint capacities.
#pragma once

#include <memory>
#include <vector>

#include "flowsim/flowsim.h"
#include "pathdecomp/decompose.h"
#include "pktsim/simulator.h"
#include "topo/parking_lot.h"
#include "workload/flow.h"

namespace m3 {

struct PathScenario {
  std::unique_ptr<ParkingLot> lot;
  std::vector<Flow> flows;        // local ids 0..N-1, routed in lot->topo()
  std::vector<char> is_fg;        // parallel to flows
  std::vector<FlowId> orig_id;    // caller's Flow::id, or -1 for synthetic
  // Hop span of each flow on the chain: [entry, exit) over path links.
  std::vector<int> entry_hop;
  std::vector<int> exit_hop;
  int num_links = 0;

  std::size_t num_fg() const {
    std::size_t n = 0;
    for (char c : is_fg) n += (c != 0);
    return n;
  }
};

/// Builds the path-level scenario for `decomp.path(path_idx)` from the full
/// topology and flow set.
PathScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                               const PathDecomposition& decomp, std::size_t path_idx);

/// Runs flowSim on a path scenario (all flows).
std::vector<FlowResult> RunPathFlowSim(const PathScenario& scenario);

/// Runs the packet simulator on a path scenario; this is "ns-3-path" (§2.1).
std::vector<FlowResult> RunPathPktSim(const PathScenario& scenario, const NetConfig& cfg);

/// Extracts (size, slowdown) pairs of the scenario's foreground flows from
/// a result vector aligned with scenario.flows.
struct SizedSlowdown {
  Bytes size;
  double slowdown;
};
std::vector<SizedSlowdown> ForegroundSlowdowns(const PathScenario& scenario,
                                               const std::vector<FlowResult>& results);

}  // namespace m3
