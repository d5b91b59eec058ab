#include "pathdecomp/path_topology.h"

#include "util/fault.h"

namespace m3 {

PathScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                               const PathDecomposition& decomp, std::size_t path_idx) {
  const PathInfo& info = decomp.path(path_idx);
  const int n = static_cast<int>(info.links.size());

  std::vector<Bpns> rates;
  std::vector<Ns> delays;
  rates.reserve(info.links.size());
  delays.reserve(info.links.size());
  for (LinkId l : info.links) {
    rates.push_back(topo.link(l).rate);
    delays.push_back(topo.link(l).delay);
  }

  const std::vector<BgFlowOnPath> background = decomp.BackgroundFlows(path_idx);
  const std::size_t total = info.fg_flows.size() + background.size();

  PathScenario sc;
  sc.num_links = n;
  sc.lot = std::make_unique<ParkingLot>(rates, delays, /*hosts_at_ends=*/true);
  sc.flows.reserve(total);
  sc.is_fg.reserve(total);
  sc.orig_id.reserve(total);
  sc.entry_hop.reserve(total);
  sc.exit_hop.reserve(total);
  ParkingLot& lot = *sc.lot;
  const NodeId head = lot.switch_at(0);
  const NodeId tail = lot.switch_at(n);

  const auto add = [&sc](const Flow& orig, NodeId src, NodeId dst, Route path, bool fg,
                         int entry, int exit) {
    Flow f;
    f.id = static_cast<FlowId>(sc.flows.size());
    f.src = src;
    f.dst = dst;
    f.size = orig.size;
    f.arrival = orig.arrival;
    f.path = std::move(path);
    sc.flows.push_back(std::move(f));
    sc.is_fg.push_back(fg ? 1 : 0);
    sc.orig_id.push_back(orig.id);
    sc.entry_hop.push_back(entry);
    sc.exit_hop.push_back(exit);
  };

  const Route fg_route = lot.RouteBetween(head, 0, tail, n);
  for (FlowId pos : info.fg_flows) {
    add(flows[static_cast<std::size_t>(pos)], head, tail, fg_route, true, 0, n);
  }

  for (const BgFlowOnPath& bg : background) {
    const Flow& orig = flows[static_cast<std::size_t>(bg.flow)];
    // Access capacities: the flow's original source/destination capacity
    // (its first/last link rates), per §3.2.
    const Bpns src_rate = topo.link(orig.path.front()).rate;
    const Bpns dst_rate = topo.link(orig.path.back()).rate;
    const NodeId src =
        bg.entry_hop == 0
            ? head
            : lot.AttachHost(bg.entry_hop, src_rate,
                             static_cast<std::uint64_t>(orig.src));
    const NodeId dst =
        bg.exit_hop == n
            ? tail
            : lot.AttachHost(bg.exit_hop, dst_rate,
                             static_cast<std::uint64_t>(orig.dst));
    add(orig, src, dst, lot.RouteBetween(src, bg.entry_hop, dst, bg.exit_hop), false,
        bg.entry_hop, bg.exit_hop);
  }
  return sc;
}

std::vector<FlowResult> RunPathFlowSim(const PathScenario& scenario) {
  M3_FAULT_POINT("estimator/path_flowsim");
  return RunFlowSim(scenario.lot->topo(), scenario.flows);
}

std::vector<FlowResult> RunPathPktSim(const PathScenario& scenario, const NetConfig& cfg) {
  return RunPacketSim(scenario.lot->topo(), scenario.flows, cfg);
}

std::vector<SizedSlowdown> ForegroundSlowdowns(const PathScenario& scenario,
                                               const std::vector<FlowResult>& results) {
  std::vector<SizedSlowdown> out;
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    if (scenario.is_fg[i]) out.push_back({results[i].size, results[i].slowdown});
  }
  return out;
}

}  // namespace m3
