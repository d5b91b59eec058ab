// A flow: the unit of work in every simulator in this repository.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.h"
#include "util/units.h"

namespace m3 {

using FlowId = std::int32_t;

/// Number of strict-priority classes supported by the simulators. Class 0
/// is the highest priority. The paper leaves priority classes to future
/// work (§3.6); both substrate simulators support them here.
constexpr int kNumPriorities = 3;

struct Flow {
  FlowId id = 0;      // caller's label (any value); pipelines index flows by position
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bytes size = 0;     // application bytes to transfer
  Ns arrival = 0;     // time the flow starts
  Route path;         // static route, known in advance (§3.2)
  std::uint8_t priority = 0;  // strict-priority class, 0 = highest
};

/// Result of simulating one flow.
struct FlowResult {
  FlowId id = 0;
  Bytes size = 0;
  Ns fct = 0;        // measured flow completion time
  Ns ideal_fct = 0;  // unloaded-network FCT for this size and path
  double slowdown = 1.0;  // fct / ideal_fct
  // Loss accounting (packet simulator only; fluid models never lose data).
  std::int32_t retransmits = 0;  // go-back-N recovery episodes
  std::int32_t timeouts = 0;     // RTO firings
};

}  // namespace m3
