#include "flowsim/flowsim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace m3 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ActiveFlow {
  std::size_t flow_idx;    // index into the input vector
  double remaining;        // fluid bytes left
  double rate = 0.0;       // current max-min rate (effective bytes/ns)
};

// Reusable state of a flowSim run: per-flow set-up facts and the max-min
// rate computation. RunFlowSim keeps one per thread, so a thread that runs
// one path scenario after another allocates only when a run outgrows the
// earlier ones. A "slot" is a dense index over the links the active flows
// use; everything per-link is kept per slot.
class FlowSimWorkspace {
 public:
  std::vector<double> lone_rate;     // per flow: its rate when alone; 0: waterfill it
  std::vector<double> base_latency;  // per flow
  std::vector<std::size_t> order;    // flow indices by arrival
  std::vector<ActiveFlow> active;

  void Begin(const Topology& topo, const std::vector<Flow>& flows, double efficiency) {
    topo_ = &topo;
    flows_ = &flows;
    efficiency_ = efficiency;
    for (LinkId l : used_links_) link_slot_[static_cast<std::size_t>(l)] = -1;
    used_links_.clear();
    if (link_slot_.size() < topo.num_links()) link_slot_.resize(topo.num_links(), -1);
    lone_rate.resize(flows.size());
    base_latency.resize(flows.size());
    active.clear();
  }

  // Computes rates for the active flows: strict-priority layered max-min.
  // Class 0 is waterfilled first; each lower class only sees the leftover
  // capacity (fluid analogue of strict-priority queueing).
  void ComputeRates() {
    if (active.empty()) return;
    if (active.size() == 1 && lone_rate[active[0].flow_idx] > 0.0) {
      active[0].rate = lone_rate[active[0].flow_idx];
      return;
    }
    const std::vector<Flow>& flows = *flows_;

    // Number the links in use (first appearance over the active flows' routes)
    // and record each active flow's route as slots.
    for (LinkId l : used_links_) link_slot_[static_cast<std::size_t>(l)] = -1;
    used_links_.clear();
    route_slots_.clear();
    route_begin_.clear();
    for (const ActiveFlow& af : active) {
      route_begin_.push_back(route_slots_.size());
      for (LinkId l : flows[af.flow_idx].path) {
        std::int32_t& slot = link_slot_[static_cast<std::size_t>(l)];
        if (slot < 0) {
          slot = static_cast<std::int32_t>(used_links_.size());
          used_links_.push_back(l);
        }
        route_slots_.push_back(static_cast<std::uint32_t>(slot));
      }
    }
    route_begin_.push_back(route_slots_.size());

    // No link carries two crossings: every slot keeps cap / 1 until its one
    // flow freezes, at its route's minimum, and classes cannot interact, so
    // each flow runs at its lone rate (DESIGN.md, "Link-disjoint rates").
    if (route_slots_.size() == used_links_.size() &&
        std::all_of(active.begin(), active.end(),
                    [this](const ActiveFlow& af) { return lone_rate[af.flow_idx] > 0.0; })) {
      for (ActiveFlow& af : active) af.rate = lone_rate[af.flow_idx];
      return;
    }

    cap_.resize(used_links_.size());
    for (std::size_t s = 0; s < used_links_.size(); ++s) {
      cap_[s] = topo_->link(used_links_[s]).rate * efficiency_;
    }

    for (auto& group : groups_) group.clear();
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::size_t prio = std::min<std::size_t>(flows[active[a].flow_idx].priority,
                                                     kNumPriorities - 1);
      groups_[prio].push_back(a);
    }
    // Classes are disjoint, so one frozen flag per active flow serves all.
    frozen_.assign(active.size(), 0);
    for (const auto& group : groups_) WaterfillGroup(group);
  }

 private:
  // Waterfills one priority class of flows (indices into `active`) against
  // the remaining capacities in cap_, consuming capacity as flows freeze.
  void WaterfillGroup(const std::vector<std::size_t>& group) {
    if (group.empty()) return;
    const std::size_t num_slots = cap_.size();
    // Per-slot unfrozen counts and membership (CSR, in group order) limited
    // to this group.
    unfrozen_.assign(num_slots, 0);
    for (std::size_t a : group) {
      for (std::size_t k = route_begin_[a]; k < route_begin_[a + 1]; ++k) {
        ++unfrozen_[route_slots_[k]];
      }
    }
    member_begin_.resize(num_slots + 1);
    member_begin_[0] = 0;
    for (std::size_t s = 0; s < num_slots; ++s) {
      member_begin_[s + 1] = member_begin_[s] + static_cast<std::size_t>(unfrozen_[s]);
    }
    members_.resize(member_begin_[num_slots]);
    fill_.assign(member_begin_.begin(), member_begin_.end() - 1);
    for (std::size_t a : group) {
      for (std::size_t k = route_begin_[a]; k < route_begin_[a + 1]; ++k) {
        members_[fill_[route_slots_[k]]++] = a;
      }
    }

    std::size_t num_frozen = 0;
    while (num_frozen < group.size()) {
      double best_share = kInf;
      std::size_t best = 0;
      bool found = false;
      for (std::size_t s = 0; s < num_slots; ++s) {
        if (unfrozen_[s] <= 0) continue;
        const double share = cap_[s] / unfrozen_[s];
        if (share < best_share) {
          best_share = share;
          best = s;
          found = true;
        }
      }
      if (!found) break;  // defensive; cannot happen while flows remain

      for (std::size_t m = member_begin_[best]; m < member_begin_[best + 1]; ++m) {
        const std::size_t a = members_[m];
        if (frozen_[a]) continue;
        frozen_[a] = 1;
        ++num_frozen;
        active[a].rate = best_share;
        for (std::size_t k = route_begin_[a]; k < route_begin_[a + 1]; ++k) {
          const std::uint32_t s = route_slots_[k];
          cap_[s] -= best_share;
          if (cap_[s] < 0.0) cap_[s] = 0.0;
          unfrozen_[s] -= 1;
        }
      }
    }
  }

  const Topology* topo_ = nullptr;
  const std::vector<Flow>* flows_ = nullptr;
  double efficiency_ = 0.0;

  std::vector<std::int32_t> link_slot_;      // LinkId -> slot, -1 when unused
  std::vector<LinkId> used_links_;           // slot -> LinkId
  std::vector<std::uint32_t> route_slots_;   // active routes as slots, concatenated
  std::vector<std::size_t> route_begin_;     // active[a]'s slots: [begin[a], begin[a+1])
  std::vector<double> cap_;                  // remaining capacity per slot
  std::array<std::vector<std::size_t>, kNumPriorities> groups_;
  std::vector<char> frozen_;                 // per active flow
  std::vector<int> unfrozen_;                // per slot, current group
  std::vector<std::size_t> member_begin_;    // per slot, into members_
  std::vector<std::size_t> members_;         // active indices per slot
  std::vector<std::size_t> fill_;            // CSR fill cursors
};

}  // namespace

std::vector<FlowResult> RunFlowSim(const Topology& topo, const std::vector<Flow>& flows,
                                   const FlowSimOptions& opts) {
  const double efficiency =
      static_cast<double>(opts.mtu) / static_cast<double>(opts.mtu + opts.hdr);

  thread_local FlowSimWorkspace ws;
  ws.Begin(topo, flows, efficiency);
  std::vector<FlowResult> results(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.path.empty() || f.size <= 0) {
      throw std::invalid_argument("RunFlowSim: every flow needs a path and positive size");
    }
    const Bpns bottleneck = topo.RouteMinRate(f.path);
    results[i].id = f.id;
    results[i].size = f.size;
    results[i].ideal_fct = IdealFct(topo, f.path, f.size, opts.mtu, opts.hdr, bottleneck);
    // Scaling by efficiency > 0 keeps the minimum, so min_rate is bitwise
    // the minimum over the route of rate * efficiency: the waterfill's
    // share for the flow when it is alone (cap / 1 on every link). That
    // holds unless the route crosses a link twice (cap / 2 there) or
    // min_rate is not finite and positive; those flows keep the waterfill.
    const double min_rate = bottleneck * efficiency;
    bool once = true;
    for (auto l = f.path.begin(); once && l != f.path.end(); ++l) {
      once = std::find(f.path.begin(), l, *l) == l;
    }
    ws.lone_rate[i] = once && min_rate > 0.0 && min_rate < kInf ? min_rate : 0.0;
    const double fluid_unloaded = static_cast<double>(f.size) / min_rate;
    ws.base_latency[i] =
        std::max(0.0, static_cast<double>(results[i].ideal_fct) - fluid_unloaded);
  }

  // Flows ordered by arrival.
  std::vector<std::size_t>& order = ws.order;
  order.resize(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&flows](std::size_t a, std::size_t b) {
    return flows[a].arrival < flows[b].arrival;
  });

  std::vector<ActiveFlow>& active = ws.active;
  std::size_t next_arrival = 0;
  double now = flows.empty() ? 0.0 : static_cast<double>(flows[order[0]].arrival);

  while (next_arrival < order.size() || !active.empty()) {
    // Next completion under current rates.
    double completion_at = kInf;
    std::size_t completion_idx = 0;
    for (std::size_t a = 0; a < active.size(); ++a) {
      if (active[a].rate <= 0.0) continue;
      const double t = now + active[a].remaining / active[a].rate;
      if (t < completion_at) {
        completion_at = t;
        completion_idx = a;
      }
    }
    const double arrival_at =
        next_arrival < order.size()
            ? static_cast<double>(flows[order[next_arrival]].arrival)
            : kInf;

    const bool is_arrival = arrival_at <= completion_at;
    const double t_event = is_arrival ? arrival_at : completion_at;

    // Serve all active flows up to the event time.
    const double dt = t_event - now;
    if (dt > 0.0) {
      for (ActiveFlow& a : active) a.remaining -= a.rate * dt;
    }
    now = t_event;

    if (is_arrival) {
      const std::size_t idx = order[next_arrival++];
      active.push_back(ActiveFlow{idx, static_cast<double>(flows[idx].size), 0.0});
    } else {
      const std::size_t idx = active[completion_idx].flow_idx;
      const Flow& f = flows[idx];
      const double fct = (now - static_cast<double>(f.arrival)) + ws.base_latency[idx];
      results[idx].fct = static_cast<Ns>(std::llround(fct));
      results[idx].slowdown =
          results[idx].ideal_fct > 0
              ? fct / static_cast<double>(results[idx].ideal_fct)
              : 1.0;
      active[completion_idx] = active.back();
      active.pop_back();
    }

    ws.ComputeRates();
  }

  return results;
}

}  // namespace m3
