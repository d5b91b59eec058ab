#include "pathdecomp/path_topology.h"

#include <array>
#include <span>

#include "util/fault.h"

namespace m3 {

PathScenario BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                               const PathDecomposition& decomp, std::size_t path_idx) {
  PathScenario sc;
  BuildPathScenario(topo, flows, decomp, path_idx, &sc);
  return sc;
}

void BuildPathScenario(const Topology& topo, const std::vector<Flow>& flows,
                       const PathDecomposition& decomp, std::size_t path_idx,
                       PathScenario* into) {
  const PathInfo info = decomp.path(path_idx);
  const int n = static_cast<int>(info.links.size());
  // Throws for paths over kMaxPathHops hops, before `*into` is touched.
  thread_local std::vector<BgFlowOnPath> background;
  decomp.BackgroundFlows(path_idx, &background);

  std::array<Bpns, kMaxPathHops> rates;
  std::array<Ns, kMaxPathHops> delays;
  for (int h = 0; h < n; ++h) {
    const Link& lk = topo.link(info.links[static_cast<std::size_t>(h)]);
    rates[static_cast<std::size_t>(h)] = lk.rate;
    delays[static_cast<std::size_t>(h)] = lk.delay;
  }
  const std::span<const Bpns> chain_rates(rates.data(), info.links.size());
  const std::span<const Ns> chain_delays(delays.data(), info.links.size());
  std::size_t attach_calls = 0;
  for (const BgFlowOnPath& bg : background) {
    attach_calls += (bg.entry_hop != 0) + (bg.exit_hop != n);
  }

  PathScenario& sc = *into;
  sc.num_links = n;
  if (sc.lot == nullptr) {
    sc.lot = std::make_unique<ParkingLot>(chain_rates, chain_delays, /*hosts_at_ends=*/true,
                                          attach_calls);
  } else {
    sc.lot->Reset(chain_rates, chain_delays, /*hosts_at_ends=*/true, attach_calls);
  }
  ParkingLot& lot = *sc.lot;
  const NodeId head = lot.switch_at(0);
  const NodeId tail = lot.switch_at(n);

  // Every per-flow field is overwritten below; surviving flows keep their
  // route capacity.
  const std::size_t total = info.fg_flows.size() + background.size();
  sc.flows.resize(total);
  sc.is_fg.resize(total);
  sc.orig_id.resize(total);
  sc.entry_hop.resize(total);
  sc.exit_hop.resize(total);

  std::size_t k = 0;
  const auto set = [&sc, &k](const Flow& orig, NodeId src, NodeId dst, bool fg, int entry,
                             int exit) -> Flow& {
    Flow& f = sc.flows[k];
    f.id = static_cast<FlowId>(k);
    f.src = src;
    f.dst = dst;
    f.size = orig.size;
    f.arrival = orig.arrival;
    f.priority = 0;  // path scenarios run every flow in class 0
    sc.is_fg[k] = fg ? 1 : 0;
    sc.orig_id[k] = orig.id;
    sc.entry_hop[k] = entry;
    sc.exit_hop[k] = exit;
    ++k;
    return f;
  };

  for (FlowId pos : info.fg_flows) {
    Flow& f = set(flows[static_cast<std::size_t>(pos)], head, tail, true, 0, n);
    if (k == 1) {
      lot.RouteBetween(head, 0, tail, n, &f.path);
    } else {
      f.path = sc.flows.front().path;
    }
  }

  // Background flows lie scattered over the flow vector and their routes
  // over the heap, so each is fetched a few flows ahead of its use.
  const auto orig_of = [&](std::size_t k) -> const Flow& {
    return flows[static_cast<std::size_t>(background[k].flow)];
  };
  for (std::size_t k = 0; k < background.size(); ++k) {
    if (k + 16 < background.size()) __builtin_prefetch(&orig_of(k + 16));
    if (k + 8 < background.size()) __builtin_prefetch(orig_of(k + 8).path.data());
    const BgFlowOnPath& bg = background[k];
    const Flow& orig = orig_of(k);
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
    Flow& f = set(orig, src, dst, false, bg.entry_hop, bg.exit_hop);
    lot.RouteBetween(src, bg.entry_hop, dst, bg.exit_hop, &f.path);
  }
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
