// Path-level decomposition (§3.2): groups flows by their exact route and,
// for a given path, classifies every other flow sharing at least one link
// as background traffic with its entry/exit hop along the path.
//
// Flows are referred to by their position in the decomposed flow vector,
// never by Flow::id: ids are caller-chosen labels (any i32, not necessarily
// dense or unique) and are only carried through to PathScenario::orig_id.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "topo/topology.h"
#include "workload/flow.h"

namespace m3 {

/// A populated path: a full host-to-host route and the foreground flows
/// that traverse every one of its links (Eq. 1), as ascending positions in
/// the flow vector. A view into its PathDecomposition.
struct PathInfo {
  std::span<const LinkId> links;
  std::span<const FlowId> fg_flows;
};

/// The longest path BackgroundFlows (and so a path scenario) accepts.
constexpr int kMaxPathHops = 32;

/// A background segment on a specific path (Eq. 2): the flow at position
/// `flow` traverses the path's links [entry_hop, exit_hop). A flow that
/// intersects the path non-contiguously (possible for ECMP siblings of the
/// foreground flows) contributes one segment per maximal contiguous run.
struct BgFlowOnPath {
  FlowId flow = 0;
  int entry_hop = 0;
  int exit_hop = 0;  // exclusive
};

class PathDecomposition {
 public:
  /// Indexes `flows` (which must carry valid paths in `topo`). Paths are
  /// numbered in order of first appearance in `flows`. That order is a
  /// compatibility contract: SamplePaths draws against it, so reordering
  /// paths changes every sampled answer.
  PathDecomposition(const Topology& topo, const std::vector<Flow>& flows);

  std::size_t num_paths() const { return route_begin_.size() - 1; }
  PathInfo path(std::size_t i) const {
    return {{route_links_.data() + route_begin_[i], route_begin_[i + 1] - route_begin_[i]},
            {fg_flows_.data() + fg_begin_[i], fg_begin_[i + 1] - fg_begin_[i]}};
  }

  /// All background segments of path `i`, per Eq. 2, with their hop spans,
  /// ordered by flow position and then by hop. Throws std::invalid_argument
  /// for a path over kMaxPathHops hops.
  std::vector<BgFlowOnPath> BackgroundFlows(std::size_t i) const;
  /// The same segments, written into `*out` (reusing its capacity); `*out`
  /// is untouched when it throws.
  void BackgroundFlows(std::size_t i, std::vector<BgFlowOnPath>* out) const;

  /// Sampling weights as inclusive prefix sums: entry i is the number of
  /// foreground flows on paths 0..i.
  std::span<const std::size_t> ForegroundCumulative() const {
    return {fg_begin_.data() + 1, num_paths()};
  }

 private:
  // Path i's route is route_links_[route_begin_[i], route_begin_[i + 1]).
  // CSRs of ascending flow positions: path i's foreground flows are
  // fg_flows_[fg_begin_[i], fg_begin_[i + 1]), and link l's flows are
  // link_flows_[link_begin_[l], link_begin_[l + 1]).
  std::vector<std::size_t> route_begin_{0};
  std::vector<LinkId> route_links_;
  std::vector<std::size_t> fg_begin_;
  std::vector<FlowId> fg_flows_;
  std::vector<std::size_t> link_begin_;
  std::vector<FlowId> link_flows_;
};

}  // namespace m3
