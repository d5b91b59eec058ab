#include "topo/parking_lot.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace m3 {

ParkingLot::ParkingLot(int num_links, Bpns link_rate, Ns delay, bool hosts_at_ends)
    : ParkingLot(std::vector<Bpns>(static_cast<std::size_t>(num_links), link_rate),
                 std::vector<Ns>(static_cast<std::size_t>(num_links), delay),
                 hosts_at_ends) {}

ParkingLot::ParkingLot(std::span<const Bpns> rates, std::span<const Ns> delays,
                       bool hosts_at_ends, std::size_t max_endpoints) {
  Reset(rates, delays, hosts_at_ends, max_endpoints);
}

void ParkingLot::Reset(std::span<const Bpns> rates, std::span<const Ns> delays,
                       bool hosts_at_ends, std::size_t max_endpoints) {
  if (rates.empty() || rates.size() != delays.size()) {
    throw std::invalid_argument("ParkingLot: rates/delays must be non-empty and equal-sized");
  }
  const std::size_t max_nodes = rates.size() + 1 + max_endpoints;
  topo_.Clear();
  topo_.Reserve(max_nodes, 2 * (rates.size() + max_endpoints));
  switches_.clear();
  path_links_.clear();
  access_.clear();
  access_.reserve(max_nodes);
  if (++epoch_ == 0) {  // wrapped: stale slots could match again
    std::fill(table_.begin(), table_.end(), Slot{});
    epoch_ = 1;
  }
  table_used_ = 0;

  switches_.reserve(rates.size() + 1);
  for (std::size_t i = 0; i <= rates.size(); ++i) {
    const bool endpoint = hosts_at_ends && (i == 0 || i == rates.size());
    switches_.push_back(topo_.AddNode(endpoint ? NodeKind::kHost : NodeKind::kSwitch));
  }
  path_links_.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    // Only the forward direction carries foreground data; the reverse link
    // exists for ACK traffic.
    auto [fwd, rev] = topo_.AddDuplexLink(switches_[i], switches_[i + 1], rates[i], delays[i]);
    (void)rev;
    path_links_.push_back(fwd);
  }
}

std::size_t ParkingLot::SlotOf(std::uint64_t key, int at) const {
  const std::size_t mask = table_.size() - 1;
  std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint32_t>(at) * 0xc2b2ae3d27d4eb4fULL);
  h ^= h >> 32;
  for (std::size_t s = static_cast<std::size_t>(h) & mask;; s = (s + 1) & mask) {
    const Slot& slot = table_[s];
    if (slot.epoch != epoch_ || (slot.key == key && slot.at == at)) return s;
  }
}

void ParkingLot::GrowTable() {
  std::vector<Slot> old = std::move(table_);
  table_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
  for (const Slot& slot : old) {
    if (slot.epoch == epoch_) table_[SlotOf(slot.key, slot.at)] = slot;
  }
}

NodeId ParkingLot::AttachHost(int i, Bpns access_rate, std::uint64_t endpoint_key,
                              Ns access_delay) {
  if (topo_.kind(switch_at(i)) == NodeKind::kHost) {
    // Attaching at an endpoint node means the flow originates/terminates at
    // the path endpoint itself; no synthetic access link is needed.
    return switch_at(i);
  }
  if (2 * (table_used_ + 1) > table_.size()) GrowTable();  // load factor <= 1/2
  Slot& slot = table_[SlotOf(endpoint_key, i)];
  if (slot.epoch == epoch_) return slot.host;
  const NodeId host = topo_.AddNode(NodeKind::kHost);
  const auto [up, down] = topo_.AddDuplexLink(host, switch_at(i), access_rate, access_delay);
  slot = Slot{endpoint_key, i, host, epoch_};
  ++table_used_;
  access_.resize(static_cast<std::size_t>(host) + 1);
  access_[static_cast<std::size_t>(host)] = Access{i, up, down};
  return host;
}

const ParkingLot::Access& ParkingLot::AccessAt(NodeId host, int i) const {
  if (host < 0 || static_cast<std::size_t>(host) >= access_.size() ||
      access_[static_cast<std::size_t>(host)].at != i) {
    throw std::invalid_argument("ParkingLot::RouteBetween: node " + std::to_string(host) +
                                " is not a host attached at chain node " + std::to_string(i));
  }
  return access_[static_cast<std::size_t>(host)];
}

Route ParkingLot::RouteBetween(NodeId src_host, int i, NodeId dst_host, int j) const {
  Route route;
  RouteBetween(src_host, i, dst_host, j, &route);
  return route;
}

void ParkingLot::RouteBetween(NodeId src_host, int i, NodeId dst_host, int j,
                              Route* out) const {
  if (i >= j) throw std::invalid_argument("ParkingLot::RouteBetween requires i < j");
  out->clear();
  out->reserve(static_cast<std::size_t>(j - i) + 2);
  if (src_host != switch_at(i)) out->push_back(AccessAt(src_host, i).up);
  out->insert(out->end(), path_links_.begin() + i, path_links_.begin() + j);
  if (dst_host != switch_at(j)) out->push_back(AccessAt(dst_host, j).down);
}

}  // namespace m3
