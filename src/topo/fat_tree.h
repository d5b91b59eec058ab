// Three-tier Clos ("fat-tree") topology in the style of Meta's data center
// fabric: hosts -> top-of-rack (ToR) switches -> per-pod fabric switches ->
// spine planes. Oversubscription is controlled by the number of spines per
// plane, matching the paper's "variable spine counts" methodology (§5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.h"

namespace m3 {

struct FatTreeConfig {
  int pods = 2;
  int racks_per_pod = 16;
  int hosts_per_rack = 8;
  int fabric_per_pod = 4;    // also the number of spine planes
  int spines_per_plane = 8;  // controls oversubscription
  double host_gbps = 10.0;
  double core_gbps = 40.0;
  Ns link_delay = 1000;  // 1us per hop

  int num_racks() const { return pods * racks_per_pod; }
  int num_hosts() const { return num_racks() * hosts_per_rack; }

  /// Fabric-to-spine oversubscription ratio (downlink / uplink capacity at a
  /// fabric switch). 1.0 means full bisection.
  double Oversubscription() const {
    const double down = racks_per_pod * core_gbps;
    const double up = spines_per_plane * core_gbps;
    return down / up;
  }

  /// The paper's small-scale testbed: 32 racks, 256 hosts.
  static FatTreeConfig Small(double oversub = 1.0);
  /// The paper's large-scale testbed shape: 384 racks, 6144 hosts.
  static FatTreeConfig Large(double oversub = 2.0);
};

class FatTree {
 public:
  explicit FatTree(const FatTreeConfig& cfg);

  const Topology& topo() const { return topo_; }
  const FatTreeConfig& config() const { return cfg_; }

  int num_hosts() const { return cfg_.num_hosts(); }
  int num_racks() const { return cfg_.num_racks(); }

  NodeId host(int host_idx) const { return hosts_[static_cast<std::size_t>(host_idx)]; }

  /// Host index of a node, or -1 if the node is not a host of this tree.
  int HostIndexOf(NodeId n) const {
    if (n < 0 || static_cast<std::size_t>(n) >= host_index_.size()) return -1;
    return host_index_[static_cast<std::size_t>(n)];
  }
  NodeId tor(int rack_idx) const { return tors_[static_cast<std::size_t>(rack_idx)]; }

  int RackOfHost(int host_idx) const { return host_idx / cfg_.hosts_per_rack; }
  int PodOfRack(int rack_idx) const { return rack_idx / cfg_.racks_per_pod; }
  int HostIndexInRack(int host_idx) const { return host_idx % cfg_.hosts_per_rack; }

  /// ECMP route between two hosts (by host index). `flow_key` selects among
  /// the equal-cost choices deterministically, emulating a 5-tuple hash.
  /// Same-host src/dst is invalid. Paths have 2 links (same rack), 4 links
  /// (same pod), or 6 links (cross-pod).
  Route RouteBetween(int src_host, int dst_host, std::uint64_t flow_key) const;
  /// The same route, written into `*out` (reusing its capacity).
  void RouteBetween(int src_host, int dst_host, std::uint64_t flow_key, Route* out) const;

 private:
  FatTreeConfig cfg_;
  Topology topo_;
  std::vector<NodeId> hosts_;
  std::vector<int> host_index_;  // node id -> host index (-1 for switches)
  std::vector<NodeId> tors_;
  // Link ids per tier, filled as the constructor adds each link, so a route
  // is read from tables instead of searched for (up = toward the spines):
  //   host_up_/host_down_[host]                          host <-> its ToR
  //   tor_up_/tor_down_[rack * planes + plane]           ToR <-> pod fabric
  //   fabric_up_/fabric_down_[(pod * planes + plane) * spines_per_plane + s]
  //                                                      fabric <-> spine
  std::vector<LinkId> host_up_, host_down_;
  std::vector<LinkId> tor_up_, tor_down_;
  std::vector<LinkId> fabric_up_, fabric_down_;
};

}  // namespace m3
