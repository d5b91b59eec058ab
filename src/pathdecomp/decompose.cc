#include "pathdecomp/decompose.h"

#include <array>
#include <cstdint>
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

}  // namespace

PathDecomposition::PathDecomposition(const Topology& topo, const std::vector<Flow>& flows)
    : link_begin_(topo.num_links() + 1, 0) {
  for (const Flow& f : flows) {
    for (LinkId l : f.path) ++link_begin_[static_cast<std::size_t>(l) + 1];
  }
  for (std::size_t l = 1; l < link_begin_.size(); ++l) link_begin_[l] += link_begin_[l - 1];
  link_flows_.resize(link_begin_.back());
  std::vector<std::size_t> fill(link_begin_.begin(), link_begin_.end() - 1);

  // Route -> path index: open addressing over indices into paths_, sized
  // for one path per flow at load factor <= 1/2.
  std::size_t capacity = 16;
  while (capacity < 2 * flows.size()) capacity *= 2;
  std::vector<std::int32_t> table(capacity, -1);
  const std::size_t mask = capacity - 1;

  for (std::size_t pos = 0; pos < flows.size(); ++pos) {
    const Flow& f = flows[pos];
    for (LinkId l : f.path) {
      link_flows_[fill[static_cast<std::size_t>(l)]++] = static_cast<FlowId>(pos);
    }
    std::size_t slot = HashRoute(f.path) & mask;
    while (table[slot] >= 0 && paths_[static_cast<std::size_t>(table[slot])].links != f.path) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] < 0) {
      table[slot] = static_cast<std::int32_t>(paths_.size());
      paths_.push_back(PathInfo{f.path, {}});
    }
    paths_[static_cast<std::size_t>(table[slot])].fg_flows.push_back(static_cast<FlowId>(pos));
  }
}

std::vector<BgFlowOnPath> PathDecomposition::BackgroundFlows(std::size_t i) const {
  const PathInfo& p = paths_[i];
  const int n = static_cast<int>(p.links.size());
  if (n > 32) throw std::invalid_argument("BackgroundFlows: path too long (> 32 hops)");

  // Merge the path's per-link flow lists: each flow touching the path comes
  // out once, in position order, with the bitmask of path hops it touches.
  std::array<const FlowId*, 32> at{}, end{};
  for (int hop = 0; hop < n; ++hop) {
    const auto l = static_cast<std::size_t>(p.links[static_cast<std::size_t>(hop)]);
    at[static_cast<std::size_t>(hop)] = link_flows_.data() + link_begin_[l];
    end[static_cast<std::size_t>(hop)] = link_flows_.data() + link_begin_[l + 1];
  }

  const std::uint32_t full = n == 32 ? ~0u : ((1u << n) - 1u);
  std::vector<BgFlowOnPath> bg;
  for (;;) {
    bool any = false;
    FlowId flow = 0;
    for (int hop = 0; hop < n; ++hop) {
      const auto h = static_cast<std::size_t>(hop);
      if (at[h] != end[h] && (!any || *at[h] < flow)) {
        flow = *at[h];
        any = true;
      }
    }
    if (!any) break;
    std::uint32_t mask = 0;
    for (int hop = 0; hop < n; ++hop) {
      const auto h = static_cast<std::size_t>(hop);
      while (at[h] != end[h] && *at[h] == flow) {
        mask |= 1u << hop;
        ++at[h];
      }
    }
    if (mask == full) continue;  // foreground (traverses all links)
    // ECMP siblings of the foreground flows can intersect the path
    // non-contiguously (e.g. share both host/ToR ends but take a different
    // spine). Each maximal contiguous run becomes its own background
    // segment: the full flow traverses each run, so each carries the
    // flow's size and arrival.
    int hop = 0;
    while (hop < n) {
      if (!(mask & (1u << hop))) {
        ++hop;
        continue;
      }
      int run_end = hop;
      while (run_end < n && (mask & (1u << run_end))) ++run_end;
      bg.push_back(BgFlowOnPath{flow, hop, run_end});
      hop = run_end;
    }
  }
  return bg;
}

std::vector<double> PathDecomposition::ForegroundWeights() const {
  std::vector<double> w;
  w.reserve(paths_.size());
  for (const PathInfo& p : paths_) w.push_back(static_cast<double>(p.fg_flows.size()));
  return w;
}

}  // namespace m3
