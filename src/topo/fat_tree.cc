#include "topo/fat_tree.h"

#include <stdexcept>
#include <tuple>

#include "util/rng.h"

namespace m3 {
namespace {

// Deterministic per-hop ECMP hash: mixes the flow key with a hop label.
std::uint64_t EcmpHash(std::uint64_t flow_key, std::uint64_t hop) {
  SplitMix64 sm(flow_key ^ (hop * 0x9e3779b97f4a7c15ULL));
  return sm.Next();
}

}  // namespace

FatTreeConfig FatTreeConfig::Small(double oversub) {
  FatTreeConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 16;
  cfg.hosts_per_rack = 8;
  cfg.fabric_per_pod = 4;
  // down = 16 racks * 40G = 640G per fabric switch; up = spines * 40G.
  if (oversub <= 1.0) {
    cfg.spines_per_plane = 16;
  } else if (oversub <= 2.0) {
    cfg.spines_per_plane = 8;
  } else {
    cfg.spines_per_plane = 4;  // 4-to-1
  }
  return cfg;
}

FatTreeConfig FatTreeConfig::Large(double oversub) {
  FatTreeConfig cfg;
  cfg.pods = 8;
  cfg.racks_per_pod = 48;
  cfg.hosts_per_rack = 16;
  cfg.fabric_per_pod = 4;
  if (oversub <= 1.0) {
    cfg.spines_per_plane = 48;
  } else if (oversub <= 2.0) {
    cfg.spines_per_plane = 24;
  } else {
    cfg.spines_per_plane = 12;
  }
  return cfg;
}

FatTree::FatTree(const FatTreeConfig& cfg) : cfg_(cfg) {
  if (cfg.pods < 1 || cfg.racks_per_pod < 1 || cfg.hosts_per_rack < 1 ||
      cfg.fabric_per_pod < 1 || cfg.spines_per_plane < 1) {
    throw std::invalid_argument("FatTreeConfig fields must be positive");
  }
  const Bpns host_rate = GbpsToBpns(cfg.host_gbps);
  const Bpns core_rate = GbpsToBpns(cfg.core_gbps);

  // Spines: one group ("plane") per fabric index; spines[plane][index] and
  // fabric[pod][plane] are the switch ids.
  const auto planes = static_cast<std::size_t>(cfg.fabric_per_pod);
  const auto per_plane = static_cast<std::size_t>(cfg.spines_per_plane);
  std::vector<std::vector<NodeId>> spines(planes);
  for (auto& plane : spines) {
    plane.reserve(per_plane);
    for (std::size_t s = 0; s < per_plane; ++s) {
      plane.push_back(topo_.AddNode(NodeKind::kSwitch));
    }
  }

  std::vector<std::vector<NodeId>> fabric(static_cast<std::size_t>(cfg.pods));
  fabric_up_.resize(static_cast<std::size_t>(cfg.pods) * planes * per_plane);
  fabric_down_.resize(fabric_up_.size());
  for (int p = 0; p < cfg.pods; ++p) {
    auto& pod_fabric = fabric[static_cast<std::size_t>(p)];
    pod_fabric.reserve(planes);
    for (std::size_t f = 0; f < planes; ++f) {
      const NodeId fs = topo_.AddNode(NodeKind::kSwitch);
      pod_fabric.push_back(fs);
      for (std::size_t s = 0; s < per_plane; ++s) {
        const std::size_t at = (static_cast<std::size_t>(p) * planes + f) * per_plane + s;
        std::tie(fabric_up_[at], fabric_down_[at]) =
            topo_.AddDuplexLink(fs, spines[f][s], core_rate, cfg.link_delay);
      }
    }
  }

  tors_.reserve(static_cast<std::size_t>(cfg.num_racks()));
  hosts_.reserve(static_cast<std::size_t>(cfg.num_hosts()));
  tor_up_.resize(static_cast<std::size_t>(cfg.num_racks()) * planes);
  tor_down_.resize(tor_up_.size());
  host_up_.resize(static_cast<std::size_t>(cfg.num_hosts()));
  host_down_.resize(host_up_.size());
  for (int r = 0; r < cfg.num_racks(); ++r) {
    const auto pod = static_cast<std::size_t>(PodOfRack(r));
    const NodeId tor = topo_.AddNode(NodeKind::kSwitch);
    tors_.push_back(tor);
    for (std::size_t f = 0; f < planes; ++f) {
      const std::size_t at = static_cast<std::size_t>(r) * planes + f;
      std::tie(tor_up_[at], tor_down_[at]) =
          topo_.AddDuplexLink(tor, fabric[pod][f], core_rate, cfg.link_delay);
    }
    for (int h = 0; h < cfg.hosts_per_rack; ++h) {
      const NodeId host = topo_.AddNode(NodeKind::kHost);
      const std::size_t at = hosts_.size();
      hosts_.push_back(host);
      std::tie(host_up_[at], host_down_[at]) =
          topo_.AddDuplexLink(host, tor, host_rate, cfg.link_delay);
    }
  }
  host_index_.assign(topo_.num_nodes(), -1);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    host_index_[static_cast<std::size_t>(hosts_[i])] = static_cast<int>(i);
  }
}

Route FatTree::RouteBetween(int src_host, int dst_host, std::uint64_t flow_key) const {
  Route route;
  RouteBetween(src_host, dst_host, flow_key, &route);
  return route;
}

void FatTree::RouteBetween(int src_host, int dst_host, std::uint64_t flow_key,
                           Route* out) const {
  if (src_host == dst_host) {
    throw std::invalid_argument("RouteBetween: src and dst hosts must differ");
  }
  const int src_rack = RackOfHost(src_host);
  const int dst_rack = RackOfHost(dst_host);
  const int src_pod = PodOfRack(src_rack);
  const int dst_pod = PodOfRack(dst_rack);
  const LinkId up = host_up_[static_cast<std::size_t>(src_host)];
  const LinkId down = host_down_[static_cast<std::size_t>(dst_host)];
  if (src_rack == dst_rack) {
    out->assign({up, down});
    return;
  }

  const auto planes = static_cast<std::size_t>(cfg_.fabric_per_pod);
  const std::size_t plane = EcmpHash(flow_key, 1) % planes;
  const LinkId tor_up = tor_up_[static_cast<std::size_t>(src_rack) * planes + plane];
  const LinkId tor_down = tor_down_[static_cast<std::size_t>(dst_rack) * planes + plane];
  if (src_pod == dst_pod) {
    out->assign({up, tor_up, tor_down, down});
    return;
  }

  const auto spines = static_cast<std::size_t>(cfg_.spines_per_plane);
  const std::size_t spine = EcmpHash(flow_key, 2) % spines;
  const auto fabric_at = [&](int pod) {
    return (static_cast<std::size_t>(pod) * planes + plane) * spines + spine;
  };
  out->assign({up, tor_up, fabric_up_[fabric_at(src_pod)], fabric_down_[fabric_at(dst_pod)],
               tor_down, down});
}

}  // namespace m3
