#include <gtest/gtest.h>

#include <set>

#include "topo/fat_tree.h"
#include "topo/parking_lot.h"
#include "topo/routing.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace m3 {
namespace {

// ------------------------------------------------------------- topology ---

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kSwitch);
  const auto [ab, ba] = t.AddDuplexLink(a, b, GbpsToBpns(10), 1000);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_links(), 2u);
  EXPECT_EQ(t.link(ab).src, a);
  EXPECT_EQ(t.link(ab).dst, b);
  EXPECT_EQ(t.FindLink(a, b), ab);
  EXPECT_EQ(t.FindLink(b, a), ba);
  EXPECT_EQ(t.ReverseLink(ab), ba);
  EXPECT_EQ(t.FindLink(b, b), kInvalidLink);
}

TEST(Topology, RouteValidation) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId s = t.AddNode(NodeKind::kSwitch);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const auto [as, _sa] = t.AddDuplexLink(a, s, GbpsToBpns(10), 1000);
  const auto [sb, _bs] = t.AddDuplexLink(s, b, GbpsToBpns(10), 1000);
  EXPECT_TRUE(t.ValidateRoute(a, b, {as, sb}));
  EXPECT_FALSE(t.ValidateRoute(a, b, {sb, as}));  // disconnected order
  EXPECT_FALSE(t.ValidateRoute(a, b, {as}));      // ends at switch
  EXPECT_FALSE(t.ValidateRoute(a, b, {}));
}

TEST(Topology, RouteMetrics) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId s = t.AddNode(NodeKind::kSwitch);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const LinkId as = t.AddLink(a, s, GbpsToBpns(10), 500);
  const LinkId sb = t.AddLink(s, b, GbpsToBpns(40), 700);
  const Route r{as, sb};
  EXPECT_EQ(t.RouteDelay(r), 1200);
  EXPECT_DOUBLE_EQ(t.RouteMinRate(r), GbpsToBpns(10));
}

TEST(Topology, IdealFctSinglePacketIsStoreAndForward) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId s = t.AddNode(NodeKind::kSwitch);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const LinkId as = t.AddLink(a, s, GbpsToBpns(10), 1000);
  const LinkId sb = t.AddLink(s, b, GbpsToBpns(10), 1000);
  // 500B + 48B hdr at 10G = 438.4 -> 439 ns per hop, plus 1000 ns delay each.
  const Ns expected = 2 * (1000 + TransmissionTime(548, GbpsToBpns(10)));
  EXPECT_EQ(IdealFct(t, {as, sb}, 500), expected);
}

TEST(Topology, IdealFctLargeFlowDominatedByBottleneck) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId s = t.AddNode(NodeKind::kSwitch);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const LinkId as = t.AddLink(a, s, GbpsToBpns(10), 1000);
  const LinkId sb = t.AddLink(s, b, GbpsToBpns(40), 1000);
  const Bytes size = 10 * kMB;
  const Ns fct = IdealFct(t, {as, sb}, size);
  // Serialization at 10G with 4.8% header overhead ~ 8.38 ms; allow slack
  // for the first-packet pipeline fill.
  const double goodput = static_cast<double>(size) / static_cast<double>(fct);
  EXPECT_NEAR(goodput, GbpsToBpns(10) * 1000.0 / 1048.0, 0.01);
}

TEST(Topology, IdealFctMonotoneInSize) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const LinkId ab = t.AddLink(a, b, GbpsToBpns(10), 1000);
  Ns prev = 0;
  for (Bytes size : {100, 1000, 1001, 5000, 50000, 1000000}) {
    const Ns fct = IdealFct(t, {ab}, size);
    EXPECT_GT(fct, prev);
    prev = fct;
  }
}

// ------------------------------------------------------------- fat tree ---

TEST(FatTree, SmallTopologyShape) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  EXPECT_EQ(ft.num_hosts(), 256);
  EXPECT_EQ(ft.num_racks(), 32);
  // Nodes: 256 hosts + 32 ToR + 2*4 fabric + 4*16 spines = 360.
  EXPECT_EQ(ft.topo().num_nodes(), 360u);
}

TEST(FatTree, OversubscriptionKnob) {
  EXPECT_DOUBLE_EQ(FatTreeConfig::Small(1.0).Oversubscription(), 1.0);
  EXPECT_DOUBLE_EQ(FatTreeConfig::Small(2.0).Oversubscription(), 2.0);
  EXPECT_DOUBLE_EQ(FatTreeConfig::Small(4.0).Oversubscription(), 4.0);
}

TEST(FatTree, RoutesAreValidAndEvenLength) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const int a = static_cast<int>(rng.NextBounded(256));
    int b = static_cast<int>(rng.NextBounded(256));
    if (a == b) b = (b + 1) % 256;
    const Route r = ft.RouteBetween(a, b, rng.NextU64());
    EXPECT_TRUE(ft.topo().ValidateRoute(ft.host(a), ft.host(b), r));
    EXPECT_TRUE(r.size() == 2 || r.size() == 4 || r.size() == 6);
    if (ft.RackOfHost(a) == ft.RackOfHost(b)) {
      EXPECT_EQ(r.size(), 2u);
    } else if (ft.PodOfRack(ft.RackOfHost(a)) == ft.PodOfRack(ft.RackOfHost(b))) {
      EXPECT_EQ(r.size(), 4u);
    } else {
      EXPECT_EQ(r.size(), 6u);
    }
  }
}

TEST(FatTree, EcmpSpreadsAcrossSpines) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  // Cross-pod pair: many flow keys should use many distinct spine links.
  std::set<LinkId> spine_links;
  for (std::uint64_t key = 0; key < 256; ++key) {
    const Route r = ft.RouteBetween(0, 255, key);
    ASSERT_EQ(r.size(), 6u);
    spine_links.insert(r[2]);  // fabric -> spine link
  }
  // 4 planes x 16 spines = 64 choices; with 256 keys we expect to hit most.
  EXPECT_GT(spine_links.size(), 40u);
}

TEST(FatTree, EcmpDeterministicPerKey) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  EXPECT_EQ(ft.RouteBetween(3, 200, 77), ft.RouteBetween(3, 200, 77));
}

TEST(FatTree, RouteMatchesGenericShortestPath) {
  const FatTree ft(FatTreeConfig::Small(4.0));
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const int a = static_cast<int>(rng.NextBounded(256));
    int b = static_cast<int>(rng.NextBounded(256));
    if (a == b) b = (b + 1) % 256;
    const Route structural = ft.RouteBetween(a, b, 1);
    const Route generic = ShortestPathEcmp(ft.topo(), ft.host(a), ft.host(b), 1);
    EXPECT_EQ(structural.size(), generic.size());
  }
}

TEST(FatTree, ShortestPathCountMatchesStructure) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  // Cross-pod: 4 planes x 16 spines = 64 shortest paths.
  EXPECT_DOUBLE_EQ(CountShortestPaths(ft.topo(), ft.host(0), ft.host(255)), 64.0);
  // Same pod, different rack: 4 fabric choices.
  EXPECT_DOUBLE_EQ(CountShortestPaths(ft.topo(), ft.host(0), ft.host(9)), 4.0);
  // Same rack: unique path.
  EXPECT_DOUBLE_EQ(CountShortestPaths(ft.topo(), ft.host(0), ft.host(1)), 1.0);
}

// The route FatTree::RouteBetween must give, walked switch by switch with
// Topology::FindLink: the constructor adds the spines plane by plane, then
// each pod's fabric switches plane by plane, and ECMP picks the plane, then
// the spine, from SplitMix64(key ^ hop * golden ratio).
Route FindLinkWalk(const FatTree& ft, int src_host, int dst_host, std::uint64_t key) {
  const FatTreeConfig& cfg = ft.config();
  const auto ecmp = [key](std::uint64_t hop) {
    return SplitMix64(key ^ (hop * 0x9e3779b97f4a7c15ULL)).Next();
  };
  const auto spine = [&cfg](int plane, int index) {
    return static_cast<NodeId>(plane * cfg.spines_per_plane + index);
  };
  const auto fabric = [&cfg](int pod, int plane) {
    return static_cast<NodeId>(cfg.fabric_per_pod * cfg.spines_per_plane +
                               pod * cfg.fabric_per_pod + plane);
  };
  const Topology& t = ft.topo();
  const int src_rack = ft.RackOfHost(src_host), dst_rack = ft.RackOfHost(dst_host);
  const NodeId src_tor = ft.tor(src_rack), dst_tor = ft.tor(dst_rack);
  Route r{t.FindLink(ft.host(src_host), src_tor)};
  if (src_rack != dst_rack) {
    const int plane = static_cast<int>(ecmp(1) % static_cast<std::uint64_t>(cfg.fabric_per_pod));
    const NodeId up = fabric(ft.PodOfRack(src_rack), plane);
    NodeId down = up;
    r.push_back(t.FindLink(src_tor, up));
    if (ft.PodOfRack(src_rack) != ft.PodOfRack(dst_rack)) {
      const NodeId sp = spine(
          plane, static_cast<int>(ecmp(2) % static_cast<std::uint64_t>(cfg.spines_per_plane)));
      down = fabric(ft.PodOfRack(dst_rack), plane);
      r.push_back(t.FindLink(up, sp));
      r.push_back(t.FindLink(sp, down));
    }
    r.push_back(t.FindLink(down, dst_tor));
  }
  r.push_back(t.FindLink(dst_tor, ft.host(dst_host)));
  return r;
}

TEST(FatTree, RouteTablesMatchFindLinkWalk) {
  FatTreeConfig odd;
  odd.pods = 3;
  odd.racks_per_pod = 4;
  odd.hosts_per_rack = 3;
  odd.fabric_per_pod = 3;
  odd.spines_per_plane = 5;
  for (const FatTreeConfig& cfg : {FatTreeConfig::Small(2.0), odd}) {
    const FatTree ft(cfg);
    const std::uint64_t keys[] = {0, 7, 0x9e3779b97f4a7c15ULL};
    for (int a = 0; a < ft.num_hosts(); ++a) {
      for (int b = 0; b < ft.num_hosts(); ++b) {
        if (a == b) continue;
        for (std::uint64_t key : keys) {
          const Route r = ft.RouteBetween(a, b, key);
          ASSERT_TRUE(ft.topo().ValidateRoute(ft.host(a), ft.host(b), r)) << a << "->" << b;
          ASSERT_EQ(r, FindLinkWalk(ft, a, b, key)) << a << "->" << b << " key " << key;
        }
      }
    }
  }
}

TEST(FatTree, RejectsInvalidConfig) {
  FatTreeConfig cfg;
  cfg.pods = 0;
  EXPECT_THROW(FatTree{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------- parking lot ---

TEST(ParkingLot, ChainShape) {
  ParkingLot pl(4, GbpsToBpns(10), 1000);
  EXPECT_EQ(pl.num_links(), 4);
  for (int i = 0; i < 4; ++i) {
    const Link& l = pl.topo().link(pl.path_link(i));
    EXPECT_EQ(l.src, pl.switch_at(i));
    EXPECT_EQ(l.dst, pl.switch_at(i + 1));
  }
}

TEST(ParkingLot, AttachHostDeduplicatesByEndpointKey) {
  ParkingLot pl(2, GbpsToBpns(10), 1000);
  const NodeId h1 = pl.AttachHost(0, GbpsToBpns(10), /*endpoint_key=*/42);
  const NodeId h2 = pl.AttachHost(0, GbpsToBpns(10), 42);
  const NodeId h3 = pl.AttachHost(0, GbpsToBpns(10), 43);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(ParkingLot, RoutesSpanRequestedHops) {
  ParkingLot pl(6, GbpsToBpns(40), 1000);
  const NodeId a = pl.AttachHost(1, GbpsToBpns(10), 1);
  const NodeId b = pl.AttachHost(4, GbpsToBpns(10), 2);
  const Route r = pl.RouteBetween(a, 1, b, 4);
  EXPECT_TRUE(pl.topo().ValidateRoute(a, b, r));
  EXPECT_EQ(r.size(), 5u);  // access + 3 path links + access
  EXPECT_EQ(r[1], pl.path_link(1));
  EXPECT_EQ(r[3], pl.path_link(3));
}

TEST(ParkingLot, RejectsBackwardRoutes) {
  ParkingLot pl(3, GbpsToBpns(10), 1000);
  const NodeId a = pl.AttachHost(2, GbpsToBpns(10), 1);
  const NodeId b = pl.AttachHost(0, GbpsToBpns(10), 2);
  EXPECT_THROW(pl.RouteBetween(a, 2, b, 0), std::invalid_argument);
}

TEST(ParkingLot, RejectsEndpointsNotAttachedAtTheirChainNode) {
  ParkingLot pl(3, GbpsToBpns(10), 1000);
  const NodeId a = pl.AttachHost(1, GbpsToBpns(10), 1);
  const NodeId b = pl.AttachHost(3, GbpsToBpns(10), 2);
  EXPECT_THROW(pl.RouteBetween(a, 0, b, 3), std::invalid_argument);  // a joins at 1
  EXPECT_THROW(pl.RouteBetween(a, 1, b, 2), std::invalid_argument);  // b leaves at 3
  EXPECT_THROW(pl.RouteBetween(pl.switch_at(1), 0, b, 3), std::invalid_argument);
}

// The attached-host table rehashes as it grows; every endpoint must still
// map to exactly one host, and re-attaching must find it.
TEST(ParkingLot, EndpointTableKeepsDeduplicatingPastTenThousandEndpoints) {
  ParkingLot pl(4, GbpsToBpns(40), 1000);
  const std::size_t chain_nodes = pl.topo().num_nodes();
  constexpr int kEndpoints = 12000;
  std::vector<NodeId> hosts;
  for (int e = 0; e < kEndpoints; ++e) {
    // Spread keys over chain nodes 1..3, including the same key at two
    // nodes (a distinct endpoint per node).
    hosts.push_back(pl.AttachHost(1 + e % 3, GbpsToBpns(10),
                                  static_cast<std::uint64_t>(e / 2) * 0x10001ULL));
  }
  EXPECT_EQ(pl.topo().num_nodes(), chain_nodes + kEndpoints);
  for (int e = 0; e < kEndpoints; ++e) {
    ASSERT_EQ(pl.AttachHost(1 + e % 3, GbpsToBpns(10),
                            static_cast<std::uint64_t>(e / 2) * 0x10001ULL),
              hosts[static_cast<std::size_t>(e)])
        << "endpoint " << e;
    EXPECT_EQ(hosts[static_cast<std::size_t>(e)], static_cast<NodeId>(chain_nodes) + e);
  }
  EXPECT_EQ(pl.topo().num_nodes(), chain_nodes + kEndpoints);
  const Route r = pl.RouteBetween(hosts[0], 1, hosts[2], 3);
  EXPECT_TRUE(pl.topo().ValidateRoute(hosts[0], hosts[2], r));
}

TEST(ParkingLot, ResetForgetsAttachedEndpointsAndMatchesAFreshLot) {
  const std::vector<Bpns> rates = {GbpsToBpns(10), GbpsToBpns(40), GbpsToBpns(10)};
  const std::vector<Ns> delays = {1000, 2000, 3000};
  ParkingLot pl(6, GbpsToBpns(100), 500);
  const NodeId old_host = pl.AttachHost(2, GbpsToBpns(10), 42);
  for (std::uint64_t key = 0; key < 100; ++key) pl.AttachHost(4, GbpsToBpns(10), key);

  pl.Reset(rates, delays);
  EXPECT_EQ(pl.num_links(), 3);
  EXPECT_THROW(pl.RouteBetween(old_host, 2, pl.switch_at(3), 3), std::invalid_argument);
  const NodeId relinked = pl.AttachHost(1, GbpsToBpns(25), 42);
  EXPECT_THROW(pl.RouteBetween(relinked, 2, pl.switch_at(3), 3), std::invalid_argument);

  // Same numbering, links and out-link lists as a lot built from scratch.
  ParkingLot fresh(rates, delays);
  EXPECT_EQ(fresh.AttachHost(1, GbpsToBpns(25), 42), relinked);
  ASSERT_EQ(pl.topo().num_nodes(), fresh.topo().num_nodes());
  ASSERT_EQ(pl.topo().num_links(), fresh.topo().num_links());
  for (std::size_t n = 0; n < pl.topo().num_nodes(); ++n) {
    const NodeId id = static_cast<NodeId>(n);
    EXPECT_EQ(pl.topo().kind(id), fresh.topo().kind(id)) << "node " << n;
    EXPECT_EQ(pl.topo().OutLinks(id), fresh.topo().OutLinks(id)) << "node " << n;
  }
  for (std::size_t l = 0; l < pl.topo().num_links(); ++l) {
    const Link& a = pl.topo().link(static_cast<LinkId>(l));
    const Link& b = fresh.topo().link(static_cast<LinkId>(l));
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.rate, b.rate);
    EXPECT_EQ(a.delay, b.delay);
  }
  EXPECT_EQ(pl.RouteBetween(relinked, 1, pl.switch_at(3), 3),
            fresh.RouteBetween(relinked, 1, fresh.switch_at(3), 3));
}

}  // namespace
}  // namespace m3
