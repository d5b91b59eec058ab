#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "topo/fat_tree.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3 {
namespace {

GeneratedWorkload SmallWorkload(int flows = 800, std::uint64_t seed = 5) {
  static const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec spec;
  spec.num_flows = flows;
  spec.seed = seed;
  return GenerateWorkload(ft, tm, *sizes, spec);
}

const FatTree& SmallTree() {
  static const FatTree ft(FatTreeConfig::Small(2.0));
  return ft;
}

TEST(Decompose, EveryFlowIsForegroundOnExactlyItsOwnPath) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  std::size_t total_fg = 0;
  for (std::size_t i = 0; i < decomp.num_paths(); ++i) {
    const PathInfo p = decomp.path(i);
    total_fg += p.fg_flows.size();
    for (FlowId f : p.fg_flows) {
      EXPECT_TRUE(std::ranges::equal(wl.flows[static_cast<std::size_t>(f)].path, p.links));
    }
  }
  EXPECT_EQ(total_fg, wl.flows.size());
}

TEST(Decompose, BackgroundFlowsShareButDoNotCoverPath) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  // Check a handful of paths thoroughly.
  for (std::size_t i = 0; i < std::min<std::size_t>(decomp.num_paths(), 20); ++i) {
    const PathInfo p = decomp.path(i);
    const std::set<LinkId> path_links(p.links.begin(), p.links.end());
    const std::set<FlowId> fg(p.fg_flows.begin(), p.fg_flows.end());
    std::map<FlowId, int> segment_hops;  // total hops covered per flow
    for (const BgFlowOnPath& bg : decomp.BackgroundFlows(i)) {
      EXPECT_FALSE(fg.count(bg.flow));
      const Flow& f = wl.flows[static_cast<std::size_t>(bg.flow)];
      EXPECT_LT(bg.entry_hop, bg.exit_hop);
      // Every hop inside the segment is genuinely traversed by the flow.
      const std::set<LinkId> flow_links(f.path.begin(), f.path.end());
      for (int h = bg.entry_hop; h < bg.exit_hop; ++h) {
        EXPECT_TRUE(flow_links.count(p.links[static_cast<std::size_t>(h)]));
      }
      segment_hops[bg.flow] += bg.exit_hop - bg.entry_hop;
    }
    // Per flow: segments jointly cover exactly the shared links, and never
    // the whole path.
    for (const auto& [flow_id, covered] : segment_hops) {
      const Flow& f = wl.flows[static_cast<std::size_t>(flow_id)];
      int shared = 0;
      for (LinkId l : f.path) shared += path_links.count(l);
      EXPECT_EQ(covered, shared);
      EXPECT_LT(covered, static_cast<int>(p.links.size()));
    }
  }
}

TEST(Decompose, BackgroundSetMatchesBruteForce) {
  const auto wl = SmallWorkload(300, 9);
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  for (std::size_t i = 0; i < std::min<std::size_t>(decomp.num_paths(), 10); ++i) {
    const PathInfo p = decomp.path(i);
    const std::set<LinkId> path_links(p.links.begin(), p.links.end());
    std::set<FlowId> expected;
    for (const Flow& f : wl.flows) {
      std::size_t shared = 0;
      for (LinkId l : f.path) shared += path_links.count(l);
      if (shared > 0 && shared < p.links.size()) expected.insert(f.id);
    }
    std::set<FlowId> got;
    for (const BgFlowOnPath& bg : decomp.BackgroundFlows(i)) got.insert(bg.flow);
    EXPECT_EQ(got, expected) << "path " << i;
  }
}

// A flow with only a route: decomposition reads nothing else.
Flow RoutedFlow(Route route) {
  Flow f;
  f.path = std::move(route);
  return f;
}

// A 5-link chain; decomposition only needs the link count.
Topology Chain() {
  Topology t;
  for (int n = 0; n < 6; ++n) t.AddNode(NodeKind::kSwitch);
  for (int n = 0; n < 5; ++n) t.AddLink(n, n + 1, 1.0, 1);
  return t;
}

TEST(Decompose, MatchesNaiveGroupingOnGeneratedWorkloads) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const auto wl = SmallWorkload(2000, seed);
    PathDecomposition decomp(SmallTree().topo(), wl.flows);
    std::map<Route, std::size_t> id_of;
    std::vector<Route> routes;
    std::vector<std::vector<FlowId>> fg;
    for (std::size_t pos = 0; pos < wl.flows.size(); ++pos) {
      const auto [it, fresh] = id_of.try_emplace(wl.flows[pos].path, routes.size());
      if (fresh) {
        routes.push_back(wl.flows[pos].path);
        fg.emplace_back();
      }
      fg[it->second].push_back(static_cast<FlowId>(pos));
    }
    ASSERT_EQ(decomp.num_paths(), routes.size()) << "seed " << seed;
    std::size_t cumulative = 0;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const PathInfo p = decomp.path(i);
      ASSERT_TRUE(std::ranges::equal(p.links, routes[i])) << "seed " << seed << " path " << i;
      ASSERT_TRUE(std::ranges::equal(p.fg_flows, fg[i])) << "seed " << seed << " path " << i;
      cumulative += fg[i].size();
      ASSERT_EQ(decomp.ForegroundCumulative()[i], cumulative);
    }
  }
}

TEST(Decompose, RoutesThatArePrefixesOfOneAnotherStayDistinct) {
  const Topology t = Chain();
  const std::vector<Flow> flows = {RoutedFlow({0, 1}), RoutedFlow({0, 1, 2, 3}),
                                   RoutedFlow({0}), RoutedFlow({0, 1})};
  PathDecomposition decomp(t, flows);
  ASSERT_EQ(decomp.num_paths(), 3u);
  const std::vector<Route> links = {{0, 1}, {0, 1, 2, 3}, {0}};
  const std::vector<std::vector<FlowId>> fg = {{0, 3}, {1}, {2}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::ranges::equal(decomp.path(i).links, links[i])) << "path " << i;
    EXPECT_TRUE(std::ranges::equal(decomp.path(i).fg_flows, fg[i])) << "path " << i;
  }
  // On the longest route, each shorter route is a background prefix.
  const std::vector<BgFlowOnPath> bg = decomp.BackgroundFlows(1);
  ASSERT_EQ(bg.size(), 3u);
  EXPECT_EQ(bg[0].flow, 0);
  EXPECT_EQ(bg[0].exit_hop, 2);
  EXPECT_EQ(bg[1].flow, 2);
  EXPECT_EQ(bg[1].exit_hop, 1);
  EXPECT_EQ(bg[2].flow, 3);
  EXPECT_EQ(bg[2].exit_hop, 2);
  for (const BgFlowOnPath& b : bg) EXPECT_EQ(b.entry_hop, 0);
}

TEST(Decompose, RouteSharedByFlowsFarApartIsOnePath) {
  const Topology t = Chain();
  std::vector<Flow> flows;
  flows.push_back(RoutedFlow({1, 2, 3}));
  for (int i = 0; i < 5000; ++i) flows.push_back(RoutedFlow({i % 2 == 0 ? 0 : 4}));
  flows.push_back(RoutedFlow({1, 2, 3}));
  PathDecomposition decomp(t, flows);
  ASSERT_EQ(decomp.num_paths(), 3u);
  EXPECT_TRUE(std::ranges::equal(decomp.path(0).fg_flows, std::vector<FlowId>{0, 5001}));
  EXPECT_EQ(decomp.path(1).fg_flows.size(), 2500u);
  EXPECT_EQ(decomp.path(2).fg_flows.size(), 2500u);
  EXPECT_TRUE(decomp.BackgroundFlows(0).empty());
  const std::span<const std::size_t> cumulative = decomp.ForegroundCumulative();
  EXPECT_TRUE(std::ranges::equal(cumulative, std::vector<std::size_t>{2, 2502, 5002}));
}

TEST(Decompose, EmptyFlowVectorHasNoPathsAndNoSamples) {
  PathDecomposition decomp(SmallTree().topo(), {});
  EXPECT_EQ(decomp.num_paths(), 0u);
  EXPECT_TRUE(decomp.ForegroundCumulative().empty());
  Rng rng(1);
  EXPECT_TRUE(SamplePaths(decomp, 10, rng).empty());
}

TEST(Decompose, NonContiguousEcmpSiblingGivesOneSegmentPerRun) {
  // Two cross-pod flows between the same hosts on the same plane but
  // different spines share both ends of the route and not its middle.
  const FatTree& ft = SmallTree();
  const int a = 0, b = ft.num_hosts() - 1;
  const Route first = ft.RouteBetween(a, b, 0);
  ASSERT_EQ(first.size(), 6u);
  Route sibling;
  for (std::uint64_t key = 1; sibling.empty(); ++key) {
    const Route r = ft.RouteBetween(a, b, key);
    if (r[1] == first[1] && r[2] != first[2]) sibling = r;
  }
  PathDecomposition decomp(ft.topo(), {RoutedFlow(first), RoutedFlow(sibling)});
  ASSERT_EQ(decomp.num_paths(), 2u);
  const std::vector<BgFlowOnPath> bg = decomp.BackgroundFlows(0);
  ASSERT_EQ(bg.size(), 2u);
  EXPECT_EQ(bg[0].flow, 1);
  EXPECT_EQ(bg[0].entry_hop, 0);
  EXPECT_EQ(bg[0].exit_hop, 2);
  EXPECT_EQ(bg[1].flow, 1);
  EXPECT_EQ(bg[1].entry_hop, 4);
  EXPECT_EQ(bg[1].exit_hop, 6);
}

TEST(Sampling, WeightsFollowForegroundCounts) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(3);
  const auto sample = SamplePaths(decomp, 20000, rng);
  std::map<std::size_t, int> hist;
  for (std::size_t idx : sample) hist[idx]++;
  // Compare empirical frequency to weight for the heaviest path.
  std::vector<double> weights;
  for (std::size_t i = 0; i < decomp.num_paths(); ++i) {
    weights.push_back(static_cast<double>(decomp.path(i).fg_flows.size()));
  }
  double total_w = 0.0;
  for (double w : weights) total_w += w;
  const std::size_t heaviest = static_cast<std::size_t>(
      std::max_element(weights.begin(), weights.end()) - weights.begin());
  const double expect_frac = weights[heaviest] / total_w;
  const double got_frac = hist[heaviest] / 20000.0;
  EXPECT_NEAR(got_frac, expect_frac, std::max(0.01, expect_frac * 0.5));
}

TEST(Sampling, StatsShapesMatch) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(4);
  const auto sample = SamplePaths(decomp, 50, rng);
  const auto stats = ComputePathSampleStats(decomp, sample);
  ASSERT_EQ(stats.hop_counts.size(), 50u);
  for (int h : stats.hop_counts) EXPECT_TRUE(h == 2 || h == 4 || h == 6);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GT(stats.fg_counts[i], 0);
    EXPECT_GE(stats.bg_counts[i], 0);
  }
}

TEST(PathTopology, ScenarioPreservesSizesAndArrivals) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(5);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(SmallTree().topo(), wl.flows, decomp, idx);

  EXPECT_EQ(sc.num_links, static_cast<int>(decomp.path(idx).links.size()));
  EXPECT_EQ(sc.num_fg(), decomp.path(idx).fg_flows.size());
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    const Flow& orig = wl.flows[static_cast<std::size_t>(sc.orig_id[i])];
    EXPECT_EQ(sc.flows[i].size, orig.size);
    EXPECT_EQ(sc.flows[i].arrival, orig.arrival);
    EXPECT_TRUE(sc.lot->topo().ValidateRoute(sc.flows[i].src, sc.flows[i].dst, sc.flows[i].path));
  }
}

TEST(PathTopology, ChainLinksMatchOriginalRates) {
  const auto wl = SmallWorkload();
  const Topology& topo = SmallTree().topo();
  PathDecomposition decomp(topo, wl.flows);
  Rng rng(6);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(topo, wl.flows, decomp, idx);
  const PathInfo info = decomp.path(idx);
  for (int i = 0; i < sc.num_links; ++i) {
    const Link& lot_link = sc.lot->topo().link(sc.lot->path_link(i));
    const Link& orig_link = topo.link(info.links[static_cast<std::size_t>(i)]);
    EXPECT_DOUBLE_EQ(lot_link.rate, orig_link.rate);
    EXPECT_EQ(lot_link.delay, orig_link.delay);
  }
  // Endpoints of the chain are hosts; interior nodes are switches.
  EXPECT_EQ(sc.lot->topo().kind(sc.lot->switch_at(0)), NodeKind::kHost);
  EXPECT_EQ(sc.lot->topo().kind(sc.lot->switch_at(sc.num_links)), NodeKind::kHost);
}

TEST(PathTopology, ForegroundFlowsSpanWholeChain) {
  const auto wl = SmallWorkload();
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(7);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(SmallTree().topo(), wl.flows, decomp, idx);
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    if (!sc.is_fg[i]) continue;
    ASSERT_EQ(static_cast<int>(sc.flows[i].path.size()), sc.num_links);
    for (int h = 0; h < sc.num_links; ++h) {
      EXPECT_EQ(sc.flows[i].path[static_cast<std::size_t>(h)], sc.lot->path_link(h));
    }
  }
}

TEST(PathTopology, BothSimulatorsRunOnScenario) {
  const auto wl = SmallWorkload(400, 11);
  PathDecomposition decomp(SmallTree().topo(), wl.flows);
  Rng rng(8);
  const std::size_t idx = SamplePaths(decomp, 1, rng)[0];
  const PathScenario sc = BuildPathScenario(SmallTree().topo(), wl.flows, decomp, idx);

  const auto fluid = RunPathFlowSim(sc);
  NetConfig cfg;
  const auto pkt = RunPathPktSim(sc, cfg);
  ASSERT_EQ(fluid.size(), sc.flows.size());
  ASSERT_EQ(pkt.size(), sc.flows.size());
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    EXPECT_GE(fluid[i].slowdown, 1.0 - 1e-9);
    EXPECT_GE(pkt[i].slowdown, 0.99);
  }
  const auto fg = ForegroundSlowdowns(sc, pkt);
  EXPECT_EQ(fg.size(), sc.num_fg());
}

}  // namespace
}  // namespace m3
