#include "parsimon/parsimon.h"

#include <algorithm>

#include "pktsim/simulator.h"
#include "topo/parking_lot.h"
#include "util/parallel.h"

namespace m3 {
namespace {

struct LinkDelta {
  FlowId flow;  // position in the flow vector
  Ns delta;  // FCT - ideal in the link-level simulation (>= 0)
};

// Simulates one link with all its flows; returns per-flow extra delay.
std::vector<LinkDelta> SimulateLink(const Topology& topo, const std::vector<Flow>& flows,
                                    LinkId link, const std::vector<FlowId>& on_link,
                                    const NetConfig& cfg) {
  const Link& lk = topo.link(link);
  ParkingLot lot({lk.rate}, {lk.delay});

  std::vector<Flow> local;
  local.reserve(on_link.size());
  for (FlowId pos : on_link) {
    const Flow& orig = flows[static_cast<std::size_t>(pos)];
    // Preserve the flow's end-to-end base RTT by splitting the remaining
    // path propagation across the two access links, so transport-limited
    // behavior (window vs. RTT) matches the full network.
    const Ns rest_delay =
        std::max<Ns>(1, (topo.RouteDelay(orig.path) - lk.delay) / 2);
    const NodeId src = lot.AttachHost(0, topo.link(orig.path.front()).rate,
                                      static_cast<std::uint64_t>(orig.src), rest_delay);
    const NodeId dst = lot.AttachHost(1, topo.link(orig.path.back()).rate,
                                      static_cast<std::uint64_t>(orig.dst), rest_delay);
    Flow f;
    f.id = static_cast<FlowId>(local.size());
    f.src = src;
    f.dst = dst;
    f.size = orig.size;
    f.arrival = orig.arrival;
    f.path = lot.RouteBetween(src, 0, dst, 1);
    local.push_back(std::move(f));
  }

  const std::vector<FlowResult> res = RunPacketSim(lot.topo(), local, cfg);
  std::vector<LinkDelta> deltas;
  deltas.reserve(res.size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    deltas.push_back({on_link[i], std::max<Ns>(0, res[i].fct - res[i].ideal_fct)});
  }
  return deltas;
}

}  // namespace

std::vector<FlowResult> RunParsimon(const Topology& topo, const std::vector<Flow>& flows,
                                    const ParsimonOptions& opts) {
  // Index flows by link, as positions in `flows` (ids are caller labels).
  std::vector<std::vector<FlowId>> link_flows(topo.num_links());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (LinkId l : flows[i].path) {
      link_flows[static_cast<std::size_t>(l)].push_back(static_cast<FlowId>(i));
    }
  }
  std::vector<LinkId> active_links;
  for (std::size_t l = 0; l < link_flows.size(); ++l) {
    if (static_cast<int>(link_flows[l].size()) >= opts.min_flows) {
      active_links.push_back(static_cast<LinkId>(l));
    }
  }

  // Per-link simulations in parallel; results merged deterministically.
  std::vector<std::vector<LinkDelta>> per_link(active_links.size());
  ParallelFor(
      active_links.size(),
      [&](std::size_t i) {
        const LinkId l = active_links[i];
        per_link[i] =
            SimulateLink(topo, flows, l, link_flows[static_cast<std::size_t>(l)], opts.cfg);
      },
      opts.num_threads);

  std::vector<Ns> delta_sum(flows.size(), 0);
  for (const auto& deltas : per_link) {
    for (const LinkDelta& d : deltas) {
      delta_sum[static_cast<std::size_t>(d.flow)] += d.delta;
    }
  }

  std::vector<FlowResult> out(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    FlowResult& r = out[i];
    r.id = f.id;
    r.size = f.size;
    r.ideal_fct = IdealFct(topo, f.path, f.size);
    r.fct = r.ideal_fct + delta_sum[i];
    r.slowdown = r.ideal_fct > 0
                     ? static_cast<double>(r.fct) / static_cast<double>(r.ideal_fct)
                     : 1.0;
  }
  return out;
}

}  // namespace m3
