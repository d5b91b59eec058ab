// Directed network topology: hosts and switches connected by unidirectional
// links. Duplex cables are modeled as a pair of unidirectional links.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.h"

namespace m3 {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr LinkId kInvalidLink = -1;

enum class NodeKind : std::uint8_t { kHost, kSwitch };

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bpns rate = 0.0;  // bytes per nanosecond
  Ns delay = 0;     // propagation delay
};

/// A route is the ordered list of links a flow traverses.
using Route = std::vector<LinkId>;

class Topology {
 public:
  NodeId AddNode(NodeKind kind);
  LinkId AddLink(NodeId src, NodeId dst, Bpns rate, Ns delay);

  /// Adds a duplex cable; returns {a->b, b->a} link ids.
  std::pair<LinkId, LinkId> AddDuplexLink(NodeId a, NodeId b, Bpns rate, Ns delay);

  /// Removes every node and link but keeps the storage, including each
  /// node's out-link list, so rebuilding a topology of similar size
  /// allocates nothing. Ids restart at 0.
  void Clear();

  /// Reserves room for `nodes` nodes and `links` links.
  void Reserve(std::size_t nodes, std::size_t links);

  NodeKind kind(NodeId n) const { return kinds_[static_cast<std::size_t>(n)]; }
  const Link& link(LinkId l) const { return links_[static_cast<std::size_t>(l)]; }
  std::size_t num_nodes() const { return kinds_.size(); }
  std::size_t num_links() const { return links_.size(); }

  /// Outgoing links of a node.
  const std::vector<LinkId>& OutLinks(NodeId n) const {
    return out_links_[static_cast<std::size_t>(n)];
  }

  /// Direct link src->dst, or kInvalidLink.
  LinkId FindLink(NodeId src, NodeId dst) const;

  /// The reverse of `l` (dst->src), or kInvalidLink if none exists.
  LinkId ReverseLink(LinkId l) const;

  /// Sum of propagation delays along a route.
  Ns RouteDelay(const Route& route) const;

  /// Minimum link rate along a route (the route's nominal bottleneck).
  Bpns RouteMinRate(const Route& route) const;

  /// Checks that `route` is a connected chain starting at `src` and ending
  /// at `dst`. Used for validation in tests and debug builds.
  bool ValidateRoute(NodeId src, NodeId dst, const Route& route) const;

 private:
  std::vector<NodeKind> kinds_;
  std::vector<Link> links_;
  // May hold more entries than there are nodes after Clear(): entries past
  // num_nodes() are stale and are emptied when AddNode reuses them.
  std::vector<std::vector<LinkId>> out_links_;
};

/// FCT of `size` bytes on an otherwise idle `route`: propagation, per-hop
/// serialization of the first packet, then pipelined serialization of the
/// rest at the bottleneck. `mtu`/`hdr` mirror the packet simulator framing.
/// Both the packet simulator and flowSim normalize slowdowns by this value.
Ns IdealFct(const Topology& topo, const Route& route, Bytes size, Bytes mtu = 1000,
            Bytes hdr = 48);
/// The same, given the route's RouteMinRate as `bottleneck`.
Ns IdealFct(const Topology& topo, const Route& route, Bytes size, Bytes mtu, Bytes hdr,
            Bpns bottleneck);

}  // namespace m3
