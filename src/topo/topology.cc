#include "topo/topology.h"

#include <algorithm>

namespace m3 {

NodeId Topology::AddNode(NodeKind kind) {
  const std::size_t id = kinds_.size();
  kinds_.push_back(kind);
  if (id < out_links_.size()) {
    out_links_[id].clear();
  } else {
    out_links_.emplace_back();
  }
  return static_cast<NodeId>(id);
}

LinkId Topology::AddLink(NodeId src, NodeId dst, Bpns rate, Ns delay) {
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{src, dst, rate, delay});
  out_links_[static_cast<std::size_t>(src)].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Topology::AddDuplexLink(NodeId a, NodeId b, Bpns rate,
                                                  Ns delay) {
  return {AddLink(a, b, rate, delay), AddLink(b, a, rate, delay)};
}

void Topology::Clear() {
  kinds_.clear();
  links_.clear();
}

void Topology::Reserve(std::size_t nodes, std::size_t links) {
  kinds_.reserve(nodes);
  out_links_.reserve(nodes);
  links_.reserve(links);
}

LinkId Topology::FindLink(NodeId src, NodeId dst) const {
  for (LinkId l : out_links_[static_cast<std::size_t>(src)]) {
    if (links_[static_cast<std::size_t>(l)].dst == dst) return l;
  }
  return kInvalidLink;
}

LinkId Topology::ReverseLink(LinkId l) const {
  const Link& fwd = link(l);
  return FindLink(fwd.dst, fwd.src);
}

Ns Topology::RouteDelay(const Route& route) const {
  Ns total = 0;
  for (LinkId l : route) total += link(l).delay;
  return total;
}

Bpns Topology::RouteMinRate(const Route& route) const {
  Bpns min_rate = 0.0;
  bool first = true;
  for (LinkId l : route) {
    const Bpns r = link(l).rate;
    if (first || r < min_rate) {
      min_rate = r;
      first = false;
    }
  }
  return min_rate;
}

bool Topology::ValidateRoute(NodeId src, NodeId dst, const Route& route) const {
  if (route.empty()) return false;
  NodeId at = src;
  for (LinkId l : route) {
    if (l < 0 || static_cast<std::size_t>(l) >= links_.size()) return false;
    const Link& lk = link(l);
    if (lk.src != at) return false;
    at = lk.dst;
  }
  return at == dst;
}

Ns IdealFct(const Topology& topo, const Route& route, Bytes size, Bytes mtu,
            Bytes hdr) {
  return IdealFct(topo, route, size, mtu, hdr, topo.RouteMinRate(route));
}

Ns IdealFct(const Topology& topo, const Route& route, Bytes size, Bytes mtu, Bytes hdr,
            Bpns bottleneck) {
  if (route.empty() || size <= 0) return 0;
  const Bytes first_payload = std::min(size, mtu);
  Ns fct = 0;
  // First packet: store-and-forward through every hop.
  for (LinkId l : route) {
    const Link& lk = topo.link(l);
    fct += lk.delay + TransmissionTime(first_payload + hdr, lk.rate);
  }
  // Remaining bytes stream behind the first packet at the bottleneck rate,
  // one MTU-sized frame at a time (last frame may be short).
  Bytes remaining = size - first_payload;
  if (remaining > 0) {
    const Bytes full_frames = remaining / mtu;
    const Bytes tail = remaining % mtu;
    fct += full_frames * TransmissionTime(mtu + hdr, bottleneck);
    if (tail > 0) fct += TransmissionTime(tail + hdr, bottleneck);
  }
  return fct;
}

}  // namespace m3
