#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "flowsim/flowsim.h"
#include "topo/parking_lot.h"
#include "util/rng.h"

namespace m3 {
namespace {

constexpr double kEff = 1000.0 / 1048.0;  // goodput factor for mtu=1000, hdr=48

// Single host pair on a single link.
struct SingleLink {
  Topology topo;
  NodeId a, b;
  LinkId ab;

  explicit SingleLink(double gbps = 10.0, Ns delay = 1000) {
    a = topo.AddNode(NodeKind::kHost);
    b = topo.AddNode(NodeKind::kHost);
    ab = topo.AddLink(a, b, GbpsToBpns(gbps), delay);
    topo.AddLink(b, a, GbpsToBpns(gbps), delay);
  }

  Flow MakeFlow(FlowId id, Bytes size, Ns arrival) const {
    Flow f;
    f.id = id;
    f.src = a;
    f.dst = b;
    f.size = size;
    f.arrival = arrival;
    f.path = {ab};
    return f;
  }
};

TEST(FlowSim, UnloadedFlowHasSlowdownExactlyOne) {
  SingleLink net;
  const auto res = RunFlowSim(net.topo, {net.MakeFlow(0, 100000, 0)});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_NEAR(res[0].slowdown, 1.0, 1e-6);
  EXPECT_EQ(res[0].fct, res[0].ideal_fct);
}

TEST(FlowSim, TwoSimultaneousFlowsShareFairly) {
  SingleLink net;
  const Bytes size = 1 * kMB;
  const auto res = RunFlowSim(net.topo, {net.MakeFlow(0, size, 0), net.MakeFlow(1, size, 0)});
  // Both flows get half rate the whole time: slowdown ~= 2.
  EXPECT_NEAR(res[0].slowdown, 2.0, 0.01);
  EXPECT_NEAR(res[1].slowdown, 2.0, 0.01);
}

TEST(FlowSim, ShortFlowUnaffectedAfterLongFlowCompletes) {
  SingleLink net;
  // Long flow finishes at ~ 1MB / eff-rate; short flow arrives well after.
  const Ns long_done = static_cast<Ns>(1e6 / (GbpsToBpns(10.0) * kEff));
  const auto res = RunFlowSim(
      net.topo, {net.MakeFlow(0, 1 * kMB, 0), net.MakeFlow(1, 10000, long_done + kMs)});
  EXPECT_NEAR(res[1].slowdown, 1.0, 1e-6);
}

TEST(FlowSim, SequentialSharingIsPartial) {
  SingleLink net;
  // Flow 1 arrives when flow 0 is half done: flow 0's slowdown is 1.5-ish.
  const Bytes size = 1 * kMB;
  const double rate = GbpsToBpns(10.0) * kEff;
  const Ns half = static_cast<Ns>(static_cast<double>(size) / rate / 2.0);
  const auto res = RunFlowSim(net.topo, {net.MakeFlow(0, size, 0), net.MakeFlow(1, size, half)});
  EXPECT_GT(res[0].slowdown, 1.3);
  EXPECT_LT(res[0].slowdown, 1.7);
  // Flow 1 shares for a while then runs alone.
  EXPECT_GT(res[1].slowdown, 1.2);
  EXPECT_LT(res[1].slowdown, 1.8);
}

TEST(FlowSim, ParkingLotMaxMinAllocation) {
  // Classic parking lot: one long flow over both links, one local flow per
  // link. Max-min gives every flow half of each 10G link.
  ParkingLot pl(2, GbpsToBpns(10), 1000);
  const NodeId src_long = pl.AttachHost(0, GbpsToBpns(40), 1);
  const NodeId dst_long = pl.AttachHost(2, GbpsToBpns(40), 2);
  const NodeId src_a = pl.AttachHost(0, GbpsToBpns(40), 3);
  const NodeId dst_a = pl.AttachHost(1, GbpsToBpns(40), 4);
  const NodeId src_b = pl.AttachHost(1, GbpsToBpns(40), 5);
  const NodeId dst_b = pl.AttachHost(2, GbpsToBpns(40), 6);

  const Bytes size = 4 * kMB;
  Flow f0{0, src_long, dst_long, size, 0, pl.RouteBetween(src_long, 0, dst_long, 2)};
  Flow f1{1, src_a, dst_a, size, 0, pl.RouteBetween(src_a, 0, dst_a, 1)};
  Flow f2{2, src_b, dst_b, size, 0, pl.RouteBetween(src_b, 1, dst_b, 2)};
  const auto res = RunFlowSim(pl.topo(), {f0, f1, f2});

  // All three see ~5G bottleneck (half of a 10G link) while sharing; local
  // flows then finish together and the long flow ends at the same time, so
  // all slowdowns ~= 2 relative to a 10G ideal.
  for (const auto& r : res) EXPECT_NEAR(r.slowdown, 2.0, 0.05);
}

TEST(FlowSim, BottleneckIsRespectedOnHeterogeneousPath) {
  // 40G access into a 10G path link: a single flow is limited by 10G.
  ParkingLot pl(1, GbpsToBpns(10), 1000);
  const NodeId a = pl.AttachHost(0, GbpsToBpns(40), 1);
  const NodeId b = pl.AttachHost(1, GbpsToBpns(40), 2);
  Flow f{0, a, b, 1 * kMB, 0, pl.RouteBetween(a, 0, b, 1)};
  const auto res = RunFlowSim(pl.topo(), {f});
  EXPECT_NEAR(res[0].slowdown, 1.0, 1e-6);
  const double goodput = static_cast<double>(f.size) / static_cast<double>(res[0].fct);
  EXPECT_NEAR(goodput / (GbpsToBpns(10.0) * kEff), 1.0, 0.02);
}

TEST(FlowSim, ManyFlowsNPlusOneSlowdown) {
  // n simultaneous equal flows on one link each see slowdown ~= n.
  for (int n : {4, 8, 16}) {
    SingleLink net;
    std::vector<Flow> flows;
    for (int i = 0; i < n; ++i) flows.push_back(net.MakeFlow(i, 500000, 0));
    const auto res = RunFlowSim(net.topo, flows);
    for (const auto& r : res) EXPECT_NEAR(r.slowdown, static_cast<double>(n), 0.05 * n);
  }
}

TEST(FlowSim, ConservationOfWork) {
  // Total bytes / makespan cannot exceed effective link capacity, and with
  // a backlogged link should be close to it.
  SingleLink net;
  std::vector<Flow> flows;
  Rng rng(5);
  Bytes total = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes size = 1000 + static_cast<Bytes>(rng.NextBounded(100000));
    flows.push_back(net.MakeFlow(i, size, static_cast<Ns>(rng.NextBounded(100 * kUs))));
    total += size;
  }
  const auto res = RunFlowSim(net.topo, flows);
  Ns makespan = 0;
  for (std::size_t i = 0; i < res.size(); ++i) {
    makespan = std::max(makespan, flows[i].arrival + res[i].fct);
  }
  const double throughput = static_cast<double>(total) / static_cast<double>(makespan);
  const double cap = GbpsToBpns(10.0) * kEff;
  EXPECT_LE(throughput, cap * 1.001);
  EXPECT_GT(throughput, cap * 0.85);  // heavily backlogged
}

TEST(FlowSim, SlowdownNeverBelowOne) {
  SingleLink net;
  std::vector<Flow> flows;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    flows.push_back(net.MakeFlow(i, 100 + static_cast<Bytes>(rng.NextBounded(50000)),
                                 static_cast<Ns>(rng.NextBounded(kMs))));
  }
  for (const auto& r : RunFlowSim(net.topo, flows)) {
    EXPECT_GE(r.slowdown, 1.0 - 1e-9);
  }
}

TEST(FlowSim, ResultsAlignWithInputOrder) {
  SingleLink net;
  // Arrivals deliberately out of input order.
  std::vector<Flow> flows{net.MakeFlow(0, 5000, 2 * kMs), net.MakeFlow(1, 5000, 0)};
  const auto res = RunFlowSim(net.topo, flows);
  EXPECT_EQ(res[0].id, 0);
  EXPECT_EQ(res[1].id, 1);
  EXPECT_EQ(res[0].size, 5000);
}

// Whenever one flow is active flowSim sets its rate without the waterfill.
// The active set here goes 0 -> 1 -> 2 -> 1 -> 0 over two flows whose lone
// bottleneck is their access link, while together the shared link is B's
// bottleneck. Every FCT must be the waterfill's bitwise: the expectations
// replay the simulator's arithmetic with the waterfill's rates.
TEST(FlowSim, LoneFlowRateIsTheWaterfillsBitForBit) {
  Topology topo;
  const NodeId ha = topo.AddNode(NodeKind::kHost);
  const NodeId hb = topo.AddNode(NodeKind::kHost);
  const NodeId sw = topo.AddNode(NodeKind::kSwitch);
  const NodeId dst = topo.AddNode(NodeKind::kHost);
  const Bpns rate_a = GbpsToBpns(10), rate_b = GbpsToBpns(12), rate_shared = GbpsToBpns(15);
  const LinkId up_a = topo.AddLink(ha, sw, rate_a, 1000);
  const LinkId up_b = topo.AddLink(hb, sw, rate_b, 700);
  const LinkId shared = topo.AddLink(sw, dst, rate_shared, 1500);

  Flow a{0, ha, dst, 3 * kMB, 0, {up_a, shared}};
  a.priority = 0;
  Flow b{1, hb, dst, 5 * kMB, 400 * kUs, {up_b, shared}};
  b.priority = 3;  // beyond the last class: served as the lowest
  const std::vector<FlowResult> res = RunFlowSim(topo, {a, b});
  ASSERT_EQ(res.size(), 2u);

  const double eff = 1000.0 / 1048.0;
  // Waterfill rates: alone, each flow's minimum of cap / 1 over its links;
  // together, class 0 (a) first, then b on the shared link's leftover.
  const double lone_a = std::min(rate_a * eff, rate_shared * eff);
  const double lone_b = std::min(rate_b * eff, rate_shared * eff);
  const double both_b = std::min(rate_b * eff, rate_shared * eff - lone_a);
  ASSERT_LT(both_b, lone_b);  // the shared link binds only while both run
  const auto base = [&](const Flow& f) {
    const double ideal = static_cast<double>(IdealFct(topo, f.path, f.size));
    return std::max(0.0, ideal - static_cast<double>(f.size) / (topo.RouteMinRate(f.path) * eff));
  };

  double now = 0.0;
  double rem_a = static_cast<double>(a.size);
  double rem_b = static_cast<double>(b.size);
  // a alone until b arrives.
  const double t_b = static_cast<double>(b.arrival);
  ASSERT_LT(t_b, now + rem_a / lone_a);
  rem_a -= lone_a * (t_b - now);
  now = t_b;
  // Both active until a completes (a keeps lone_a: class 0 is served first).
  const double t_a_done = now + rem_a / lone_a;
  ASSERT_LT(t_a_done, now + rem_b / both_b);
  rem_b -= both_b * (t_a_done - now);
  now = t_a_done;
  const double fct_a = (now - static_cast<double>(a.arrival)) + base(a);
  // b alone until it completes.
  now = now + rem_b / lone_b;
  const double fct_b = (now - static_cast<double>(b.arrival)) + base(b);

  EXPECT_EQ(res[0].fct, static_cast<Ns>(std::llround(fct_a)));
  EXPECT_EQ(res[0].slowdown, fct_a / static_cast<double>(res[0].ideal_fct));
  EXPECT_EQ(res[1].fct, static_cast<Ns>(std::llround(fct_b)));
  EXPECT_EQ(res[1].slowdown, fct_b / static_cast<double>(res[1].ideal_fct));
  EXPECT_EQ(res[0].ideal_fct, IdealFct(topo, a.path, a.size));
  EXPECT_EQ(res[1].ideal_fct, IdealFct(topo, b.path, b.size));
}

// A route that crosses a link twice splits that link between its two
// crossings in the waterfill (cap / 2), so a lone flow on it does not run at
// its route's minimum rate.
TEST(FlowSim, LoneFlowCrossingALinkTwiceKeepsTheWaterfillShare) {
  SingleLink net;
  const LinkId ba = net.topo.FindLink(net.b, net.a);
  Flow f = net.MakeFlow(0, 200000, 0);
  f.path = {net.ab, ba, net.ab};
  const std::vector<FlowResult> res = RunFlowSim(net.topo, {f});
  ASSERT_EQ(res.size(), 1u);

  const double eff = 1000.0 / 1048.0;
  const double cap = GbpsToBpns(10.0) * eff;
  const double ideal = static_cast<double>(IdealFct(net.topo, f.path, f.size));
  const double base = std::max(0.0, ideal - static_cast<double>(f.size) / cap);
  const double fct = static_cast<double>(f.size) / (cap / 2) + base;
  EXPECT_EQ(res[0].fct, static_cast<Ns>(std::llround(fct)));
  EXPECT_EQ(res[0].slowdown, fct / ideal);
}

// Flows that share no link never meet in the waterfill: each keeps cap / 1
// on every link of its route, whatever its class, so it runs at the rate it
// has alone. mtu 1000 + hdr 24 makes the goodput factor 1000/1024 and every
// rate, time and remainder below a short dyadic number, so each flow's
// arithmetic over the shared run's extra events is exact and its result
// must equal its lone run's bit for bit.
TEST(FlowSim, LinkDisjointFlowsRunAtTheirLoneRatesBitForBit) {
  const FlowSimOptions opts{1000, 24};
  Topology topo;
  const NodeId sw = topo.AddNode(NodeKind::kSwitch);
  std::vector<NodeId> src, dst;
  for (int i = 0; i < 4; ++i) {
    src.push_back(topo.AddNode(NodeKind::kHost));
    dst.push_back(topo.AddNode(NodeKind::kHost));
  }
  // Flow i enters on up[i] and leaves on down[i]; the bottlenecks differ:
  // 10G up for flow 0, 20G down for flow 1, 40G for flow 2.
  const double up_gbps[] = {10, 40, 40, 40}, down_gbps[] = {40, 20, 40, 40};
  std::vector<LinkId> up, down;
  for (int i = 0; i < 4; ++i) {
    up.push_back(topo.AddLink(src[i], sw, GbpsToBpns(up_gbps[i]), 1000));
    down.push_back(topo.AddLink(sw, dst[i], GbpsToBpns(down_gbps[i]), 1000));
  }
  const LinkId back3 = topo.AddLink(sw, src[3], GbpsToBpns(40), 1000);

  const auto make = [&](FlowId id, int i, Bytes size, Ns arrival, std::uint8_t prio, Route path) {
    Flow f{id, src[static_cast<std::size_t>(i)], dst[static_cast<std::size_t>(i)], size,
           arrival, std::move(path)};
    f.priority = prio;
    return f;
  };
  // Overlapping lifetimes: 0 runs [0, 512 us), 1 [100, 868 us), 2 [200, 1224 us).
  const std::vector<Flow> disjoint = {
      make(0, 0, 625 * 1000, 0, 0, {up[0], down[0]}),
      make(1, 1, 625 * 3000, 100 * kUs, 1, {up[1], down[1]}),
      make(2, 2, 625 * 8000, 200 * kUs, 2, {up[2], down[2]}),
  };
  const auto expect_same = [](const FlowResult& got, const FlowResult& alone) {
    EXPECT_EQ(got.fct, alone.fct);
    EXPECT_EQ(got.ideal_fct, alone.ideal_fct);
    EXPECT_EQ(got.slowdown, alone.slowdown);
  };
  const auto alone = [&](const Flow& f) { return RunFlowSim(topo, {f}, opts).at(0); };

  const std::vector<FlowResult> together = RunFlowSim(topo, disjoint, opts);
  ASSERT_EQ(together.size(), disjoint.size());
  for (std::size_t i = 0; i < disjoint.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(together[i], alone(disjoint[i]));
    EXPECT_EQ(together[i].slowdown, 1.0);
  }

  // Control: a third flow over flow 0's down link gets only its class-2
  // leftover (30G of 40G) while flow 0 runs, so it is slower than alone.
  std::vector<Flow> sharing = disjoint;
  sharing[2].dst = dst[0];
  sharing[2].path = {up[2], down[0]};
  const std::vector<FlowResult> shared = RunFlowSim(topo, sharing, opts);
  expect_same(shared[0], together[0]);  // class 0 is served first
  EXPECT_GT(shared[2].fct, alone(sharing[2]).fct);

  // Control: a disjoint flow that crosses up[3] twice splits it with itself
  // (cap / 2), beside the others as alone; its route minimum would be cap.
  std::vector<Flow> twice = disjoint;
  twice.push_back(make(3, 3, 625 * 2000, 300 * kUs, 1, {up[3], back3, up[3]}));
  const std::vector<FlowResult> res = RunFlowSim(topo, twice, opts);
  for (std::size_t i = 0; i < disjoint.size(); ++i) expect_same(res[i], together[i]);
  const Flow& f3 = twice[3];
  expect_same(res[3], alone(f3));
  const double cap = GbpsToBpns(40) * (1000.0 / 1024.0);
  const double ideal = static_cast<double>(IdealFct(topo, f3.path, f3.size, 1000, 24));
  const double base = std::max(0.0, ideal - static_cast<double>(f3.size) / cap);
  const double fct = static_cast<double>(f3.size) / (cap / 2) + base;
  EXPECT_EQ(res[3].fct, static_cast<Ns>(std::llround(fct)));
  EXPECT_EQ(res[3].slowdown, fct / ideal);
}

TEST(FlowSim, RejectsFlowsWithoutPath) {
  SingleLink net;
  Flow f = net.MakeFlow(0, 1000, 0);
  f.path.clear();
  EXPECT_THROW(RunFlowSim(net.topo, {f}), std::invalid_argument);
}

}  // namespace
}  // namespace m3
