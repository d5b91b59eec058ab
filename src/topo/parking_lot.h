// Parking-lot (linear) topologies: the building block of m3's path-level
// simulations. A chain of switches s0 - s1 - ... - sn connected by the
// "original" path links; foreground and background endpoints attach to the
// chain through dedicated "synthetic" access links so that flows only
// contend on the original links (§3.2).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topo/topology.h"

namespace m3 {

class ParkingLot {
 public:
  /// Builds a chain of `num_links` forward links, all with rate `link_rate`
  /// and per-hop `delay`. If `hosts_at_ends` is set, the first and last
  /// chain nodes are hosts (the path's original source/destination
  /// endpoints); interior nodes are always switches.
  ParkingLot(int num_links, Bpns link_rate, Ns delay, bool hosts_at_ends = false);

  /// Builds a chain with per-link rates/delays (e.g. copied from a sampled
  /// path in a full topology).
  ParkingLot(const std::vector<Bpns>& rates, const std::vector<Ns>& delays,
             bool hosts_at_ends = false);

  Topology& topo() { return topo_; }
  const Topology& topo() const { return topo_; }

  int num_links() const { return static_cast<int>(path_links_.size()); }

  /// i-th original link of the chain (s_i -> s_{i+1}).
  LinkId path_link(int i) const { return path_links_[static_cast<std::size_t>(i)]; }

  /// Switch s_i (i in [0, num_links]).
  NodeId switch_at(int i) const { return switches_[static_cast<std::size_t>(i)]; }

  /// Attaches (or reuses) a host at chain node `i` with an access link of
  /// rate `access_rate` in both directions. Hosts are deduplicated by
  /// (`endpoint_key`, i) so flows from the same original endpoint share
  /// their NIC, as they would in the full network.
  NodeId AttachHost(int i, Bpns access_rate, std::uint64_t endpoint_key,
                    Ns access_delay = 1000);

  /// Route from `src_host` joining the chain at node `i` to `dst_host`
  /// leaving at node `j` (i < j). If `src_host` IS chain node `i` (a
  /// hosts_at_ends endpoint) no ingress access link is used; likewise for
  /// the egress side. Any other endpoint must have been attached at that
  /// chain node by AttachHost.
  Route RouteBetween(NodeId src_host, int i, NodeId dst_host, int j) const;

 private:
  // Access links of a host created by AttachHost.
  struct Access {
    int at = -1;                 // chain node it attaches to
    LinkId up = kInvalidLink;    // host -> chain
    LinkId down = kInvalidLink;  // chain -> host
  };
  const Access& AccessAt(NodeId host, int i) const;

  using EndpointKey = std::pair<std::uint64_t, int>;  // (endpoint_key, chain node)
  struct EndpointHash {
    std::size_t operator()(const EndpointKey& k) const {
      return static_cast<std::size_t>((k.first * 0x9e3779b97f4a7c15ULL) ^
                                      static_cast<std::uint64_t>(k.second));
    }
  };

  Topology topo_;
  std::vector<NodeId> switches_;
  std::vector<LinkId> path_links_;
  std::unordered_map<EndpointKey, NodeId, EndpointHash> attached_;
  std::vector<Access> access_;  // indexed by NodeId
};

}  // namespace m3
