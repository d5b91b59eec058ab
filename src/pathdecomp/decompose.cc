#include "pathdecomp/decompose.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace m3 {
namespace {

std::uint64_t HashRoute(const Route& route) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ route.size();
  for (LinkId l : route) {
    h = (h ^ static_cast<std::uint32_t>(l)) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

// Counting sort of positions 0..n-1 by the keys in the span keys_of(pos):
// key k's positions, ascending, are (*items)[(*begin)[k], (*begin)[k + 1]).
template <typename KeysOf>
void FillCsr(std::size_t num_keys, std::size_t n, const KeysOf& keys_of,
             std::vector<std::size_t>* begin, std::vector<FlowId>* items) {
  begin->assign(num_keys + 1, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (std::int32_t k : keys_of(pos)) ++(*begin)[static_cast<std::size_t>(k) + 1];
  }
  for (std::size_t k = 1; k <= num_keys; ++k) (*begin)[k] += (*begin)[k - 1];
  items->resize(begin->back());
  std::vector<std::size_t> fill(begin->begin(), begin->end() - 1);
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (std::int32_t k : keys_of(pos)) {
      (*items)[fill[static_cast<std::size_t>(k)]++] = static_cast<FlowId>(pos);
    }
  }
}

}  // namespace

PathDecomposition::PathDecomposition(const Topology& topo, const std::vector<Flow>& flows) {
  FillCsr(topo.num_links(), flows.size(),
          [&](std::size_t pos) { return std::span<const LinkId>(flows[pos].path); },
          &link_begin_, &link_flows_);

  // Route -> path id: open addressing sized for one path per flow at load
  // factor <= 1/2. Paths are numbered as they first appear.
  std::size_t capacity = 16;
  while (capacity < 2 * flows.size()) capacity *= 2;
  const std::size_t mask = capacity - 1;
  std::vector<std::int32_t> table(capacity, -1);
  std::vector<std::int32_t> path_of(flows.size());
  route_links_.reserve(link_flows_.size());
  for (std::size_t pos = 0; pos < flows.size(); ++pos) {
    const Route& route = flows[pos].path;
    std::size_t slot = HashRoute(route) & mask;
    for (; table[slot] >= 0; slot = (slot + 1) & mask) {
      const auto id = static_cast<std::size_t>(table[slot]);
      if (std::equal(route.begin(), route.end(), route_links_.data() + route_begin_[id],
                     route_links_.data() + route_begin_[id + 1])) {
        break;
      }
    }
    if (table[slot] < 0) {
      table[slot] = static_cast<std::int32_t>(num_paths());
      route_links_.insert(route_links_.end(), route.begin(), route.end());
      route_begin_.push_back(route_links_.size());
    }
    path_of[pos] = table[slot];
  }
  FillCsr(num_paths(), flows.size(),
          [&](std::size_t pos) { return std::span<const std::int32_t>(&path_of[pos], 1); },
          &fg_begin_, &fg_flows_);
}

std::vector<BgFlowOnPath> PathDecomposition::BackgroundFlows(std::size_t i) const {
  std::vector<BgFlowOnPath> bg;
  BackgroundFlows(i, &bg);
  return bg;
}

void PathDecomposition::BackgroundFlows(std::size_t i, std::vector<BgFlowOnPath>* out) const {
  const PathInfo p = path(i);
  const int n = static_cast<int>(p.links.size());
  if (n > kMaxPathHops) {
    throw std::invalid_argument("BackgroundFlows: path too long (> 32 hops)");
  }

  // Merge the path's per-link flow lists: each flow touching the path comes
  // out once, in position order, with the bitmask of path hops it touches.
  // head[h] is hop h's next flow position, kDone once its list is spent.
  constexpr FlowId kDone = std::numeric_limits<FlowId>::max();
  std::array<const FlowId*, kMaxPathHops> at{}, end{};
  std::array<FlowId, kMaxPathHops> head{};
  for (std::size_t h = 0; h < static_cast<std::size_t>(n); ++h) {
    const auto l = static_cast<std::size_t>(p.links[h]);
    at[h] = link_flows_.data() + link_begin_[l];
    end[h] = link_flows_.data() + link_begin_[l + 1];
    head[h] = at[h] != end[h] ? *at[h] : kDone;
  }

  const std::uint32_t full = n == kMaxPathHops ? ~0u : ((1u << n) - 1u);
  std::vector<BgFlowOnPath>& bg = *out;
  bg.clear();
  for (;;) {
    FlowId flow = kDone;
    for (std::size_t h = 0; h < static_cast<std::size_t>(n); ++h) flow = std::min(flow, head[h]);
    if (flow == kDone) break;
    std::uint32_t mask = 0;
    for (std::size_t h = 0; h < static_cast<std::size_t>(n); ++h) {
      while (head[h] == flow) {  // a route may cross a link twice
        mask |= 1u << h;
        ++at[h];
        head[h] = at[h] != end[h] ? *at[h] : kDone;
      }
    }
    if (mask == full) continue;  // foreground (traverses all links)
    // ECMP siblings of the foreground flows can intersect the path
    // non-contiguously (e.g. share both host/ToR ends but take a different
    // spine). Each maximal contiguous run becomes its own background
    // segment: the full flow traverses each run, so each carries the
    // flow's size and arrival.
    while (mask != 0) {
      const int entry = std::countr_zero(mask);
      const int exit = entry + std::countr_one(mask >> entry);
      bg.push_back(BgFlowOnPath{flow, entry, exit});
      mask = exit == 32 ? 0u : mask & (~0u << exit);
    }
  }
}

}  // namespace m3
