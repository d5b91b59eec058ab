#include <gtest/gtest.h>

#include <algorithm>

#include "pktsim/simulator.h"
#include "topo/parking_lot.h"
#include "util/rng.h"
#include "util/stats.h"

namespace m3 {
namespace {

struct DumbbellNet {
  // h0, h1 -> s -> h2 : two senders share one 10G bottleneck.
  Topology topo;
  NodeId h0, h1, h2, s;
  LinkId h0s, h1s, sh2;

  DumbbellNet() {
    h0 = topo.AddNode(NodeKind::kHost);
    h1 = topo.AddNode(NodeKind::kHost);
    h2 = topo.AddNode(NodeKind::kHost);
    s = topo.AddNode(NodeKind::kSwitch);
    h0s = topo.AddDuplexLink(h0, s, GbpsToBpns(10), 1000).first;
    h1s = topo.AddDuplexLink(h1, s, GbpsToBpns(10), 1000).first;
    sh2 = topo.AddDuplexLink(s, h2, GbpsToBpns(10), 1000).first;
  }

  Flow MakeFlow(FlowId id, NodeId src, LinkId first, Bytes size, Ns arrival) const {
    Flow f;
    f.id = id;
    f.src = src;
    f.dst = h2;
    f.size = size;
    f.arrival = arrival;
    f.path = {first, sh2};
    return f;
  }
};

NetConfig DctcpConfig() {
  NetConfig cfg;
  cfg.cc = CcType::kDctcp;
  cfg.init_window = 15 * kKB;
  cfg.buffer = 300 * kKB;
  cfg.dctcp_k = 10 * kKB;
  return cfg;
}

TEST(PktSim, SingleUnloadedFlowMatchesIdealClosely) {
  DumbbellNet net;
  for (Bytes size : {500, 5000, 100000, 2000000}) {
    const auto res =
        RunPacketSim(net.topo, {net.MakeFlow(0, net.h0, net.h0s, size, 0)}, DctcpConfig());
    ASSERT_EQ(res.size(), 1u);
    // Window growth can add RTT gaps for medium flows; allow 2.2x headroom
    // but require slowdown >= 1 (nothing can beat ideal).
    EXPECT_GE(res[0].slowdown, 1.0) << "size " << size;
    EXPECT_LT(res[0].slowdown, 2.2) << "size " << size;
  }
}

TEST(PktSim, LargeFlowReachesLineRate) {
  DumbbellNet net;
  const Bytes size = 20 * kMB;
  const auto res =
      RunPacketSim(net.topo, {net.MakeFlow(0, net.h0, net.h0s, size, 0)}, DctcpConfig());
  EXPECT_NEAR(res[0].slowdown, 1.0, 0.05);
}

TEST(PktSim, TwoLongFlowsSplitBottleneckFairly) {
  DumbbellNet net;
  const Bytes size = 10 * kMB;
  const auto res = RunPacketSim(net.topo,
                                {net.MakeFlow(0, net.h0, net.h0s, size, 0),
                                 net.MakeFlow(1, net.h1, net.h1s, size, 0)},
                                DctcpConfig());
  // Each should get ~half the bottleneck: slowdown ~2 with some CC slack.
  EXPECT_NEAR(res[0].slowdown, 2.0, 0.4);
  EXPECT_NEAR(res[1].slowdown, 2.0, 0.4);
  // Fairness: completion times within 15%.
  const double ratio = static_cast<double>(res[0].fct) / static_cast<double>(res[1].fct);
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(PktSim, DctcpKeepsQueuesNearK) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  cfg.dctcp_k = 10 * kKB;
  PacketSimulator sim(net.topo,
                      {net.MakeFlow(0, net.h0, net.h0s, 20 * kMB, 0),
                       net.MakeFlow(1, net.h1, net.h1s, 20 * kMB, 0)},
                      cfg);
  sim.Run();
  EXPECT_GT(sim.stats().ecn_marks, 0u);
  // DCTCP should keep the standing queue within a small multiple of K
  // (slow-start overshoot can spike above K briefly).
  EXPECT_LT(sim.stats().max_qbytes, 8 * cfg.dctcp_k);
  EXPECT_EQ(sim.stats().drops, 0u);
}

TEST(PktSim, TinyBufferCausesDropsAndRetransmissions) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  cfg.buffer = 5 * kKB;       // pathological
  cfg.dctcp_k = 100 * kKB;    // effectively disable ECN
  cfg.init_window = 30 * kKB;
  PacketSimulator sim(net.topo,
                      {net.MakeFlow(0, net.h0, net.h0s, 1 * kMB, 0),
                       net.MakeFlow(1, net.h1, net.h1s, 1 * kMB, 0)},
                      cfg);
  const auto res = sim.Run();
  EXPECT_GT(sim.stats().drops, 0u);
  EXPECT_GT(sim.stats().retransmissions, 0u);
  // Despite losses, both flows complete.
  EXPECT_EQ(res.size(), 2u);
  for (const auto& r : res) EXPECT_GT(r.fct, 0);
}

TEST(PktSim, PfcPreventsAllDrops) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  cfg.buffer = 30 * kKB;
  cfg.dctcp_k = 1000 * kKB;  // no ECN; rely on PFC backpressure
  cfg.pfc = true;
  cfg.init_window = 30 * kKB;
  PacketSimulator sim(net.topo,
                      {net.MakeFlow(0, net.h0, net.h0s, 2 * kMB, 0),
                       net.MakeFlow(1, net.h1, net.h1s, 2 * kMB, 0)},
                      cfg);
  const auto res = sim.Run();
  EXPECT_EQ(sim.stats().drops, 0u);
  for (const auto& r : res) EXPECT_GT(r.fct, 0);
}

class PktSimAllCcTest : public ::testing::TestWithParam<CcType> {};

TEST_P(PktSimAllCcTest, CongestedWorkloadCompletesWithReasonableSlowdowns) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  cfg.cc = GetParam();
  Rng rng(42);
  std::vector<Flow> flows;
  Ns t = 0;
  for (int i = 0; i < 60; ++i) {
    t += static_cast<Ns>(rng.NextBounded(40 * kUs));
    const Bytes size = 500 + static_cast<Bytes>(rng.NextBounded(200000));
    const bool from_h0 = rng.NextDouble() < 0.5;
    flows.push_back(net.MakeFlow(i, from_h0 ? net.h0 : net.h1,
                                 from_h0 ? net.h0s : net.h1s, size, t));
  }
  PacketSimulator sim(net.topo, flows, cfg);
  const auto res = sim.Run();
  ASSERT_EQ(res.size(), flows.size());
  for (const auto& r : res) {
    EXPECT_GE(r.slowdown, 0.99) << CcName(cfg.cc);
    EXPECT_LT(r.slowdown, 500.0) << CcName(cfg.cc);
  }
}

TEST_P(PktSimAllCcTest, LongFlowUtilizesBottleneckWell) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  cfg.cc = GetParam();
  const auto res =
      RunPacketSim(net.topo, {net.MakeFlow(0, net.h0, net.h0s, 20 * kMB, 0)}, cfg);
  // A single long flow should achieve at least 60% of line rate under any
  // of the four protocols.
  EXPECT_LT(res[0].slowdown, 1.7) << CcName(cfg.cc);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PktSimAllCcTest,
                         ::testing::Values(CcType::kDctcp, CcType::kTimely,
                                           CcType::kDcqcn, CcType::kHpcc),
                         [](const auto& info) { return CcName(info.param); });

TEST(PktSim, DeterministicAcrossRuns) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  cfg.cc = CcType::kDcqcn;  // exercises the marking RNG too
  Rng rng(1);
  std::vector<Flow> flows;
  for (int i = 0; i < 40; ++i) {
    flows.push_back(net.MakeFlow(i, i % 2 ? net.h0 : net.h1, i % 2 ? net.h0s : net.h1s,
                                 1000 + static_cast<Bytes>(rng.NextBounded(50000)),
                                 static_cast<Ns>(rng.NextBounded(200 * kUs))));
  }
  const auto r1 = RunPacketSim(net.topo, flows, cfg);
  const auto r2 = RunPacketSim(net.topo, flows, cfg);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].fct, r2[i].fct);
  }
}

TEST(PktSim, SmallerInitWindowSlowsShortFlowsOnLongPaths) {
  // A short flow larger than the init window needs extra RTTs.
  ParkingLot pl(4, GbpsToBpns(10), 5000);
  const NodeId a = pl.AttachHost(0, GbpsToBpns(10), 1);
  const NodeId b = pl.AttachHost(4, GbpsToBpns(10), 2);
  Flow f{0, a, b, 30 * kKB, 0, pl.RouteBetween(a, 0, b, 4)};

  NetConfig small = DctcpConfig();
  small.init_window = 5 * kKB;
  NetConfig large = DctcpConfig();
  large.init_window = 30 * kKB;
  const auto r_small = RunPacketSim(pl.topo(), {f}, small);
  const auto r_large = RunPacketSim(pl.topo(), {f}, large);
  EXPECT_GT(r_small[0].fct, r_large[0].fct);
}

TEST(PktSim, EcnMarkingRespectsThreshold) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  // Queues (host or switch) are bounded by the windows in flight, which
  // cannot exceed the flow sizes; a threshold above that sees no marks.
  cfg.dctcp_k = 2 * kMB;
  cfg.buffer = 10 * kMB;
  PacketSimulator sim(net.topo,
                      {net.MakeFlow(0, net.h0, net.h0s, 500 * kKB, 0),
                       net.MakeFlow(1, net.h1, net.h1s, 500 * kKB, 0)},
                      cfg);
  sim.Run();
  EXPECT_EQ(sim.stats().ecn_marks, 0u);
}

TEST(PktSim, ShortFlowsSufferBehindQueueBuildup) {
  // Tail-latency mechanism check: a 1-packet flow behind a heavy incast
  // experiences slowdown >> 1.
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  std::vector<Flow> flows;
  flows.push_back(net.MakeFlow(0, net.h0, net.h0s, 3 * kMB, 0));
  flows.push_back(net.MakeFlow(1, net.h1, net.h1s, 3 * kMB, 0));
  // Short flow arrives mid-transfer.
  flows.push_back(net.MakeFlow(2, net.h0, net.h0s, 800, 500 * kUs));
  const auto res = RunPacketSim(net.topo, flows, cfg);
  EXPECT_GT(res[2].slowdown, 1.3);
}

TEST(PktSim, ResultsCarryIdealFctConsistentWithTopology) {
  DumbbellNet net;
  const Flow f = net.MakeFlow(0, net.h0, net.h0s, 12345, 0);
  const auto res = RunPacketSim(net.topo, {f}, DctcpConfig());
  EXPECT_EQ(res[0].ideal_fct, IdealFct(net.topo, f.path, f.size));
  EXPECT_EQ(res[0].size, f.size);
}

TEST(PktSim, InvalidFlowsRejected) {
  DumbbellNet net;
  Flow f = net.MakeFlow(0, net.h0, net.h0s, 1000, 0);
  f.path = {net.h1s, net.sh2};  // starts at the wrong host
  EXPECT_THROW(PacketSimulator(net.topo, {f}, DctcpConfig()), std::invalid_argument);
  Flow g = net.MakeFlow(0, net.h0, net.h0s, 0, 0);  // zero size
  EXPECT_THROW(PacketSimulator(net.topo, {g}, DctcpConfig()), std::invalid_argument);
}

TEST(PktSim, PerFlowRetransmitAccounting) {
  // Pathological buffer forces losses; per-flow counters must sum to the
  // global counter and stay zero on a clean run.
  DumbbellNet net;
  NetConfig clean = DctcpConfig();
  {
    PacketSimulator sim(net.topo, {net.MakeFlow(0, net.h0, net.h0s, 1 * kMB, 0)}, clean);
    const auto res = sim.Run();
    EXPECT_EQ(res[0].retransmits, 0);
    EXPECT_EQ(res[0].timeouts, 0);
  }
  NetConfig lossy = DctcpConfig();
  lossy.buffer = 5 * kKB;
  lossy.dctcp_k = 100 * kKB;
  lossy.init_window = 30 * kKB;
  PacketSimulator sim(net.topo,
                      {net.MakeFlow(0, net.h0, net.h0s, 1 * kMB, 0),
                       net.MakeFlow(1, net.h1, net.h1s, 1 * kMB, 0)},
                      lossy);
  const auto res = sim.Run();
  std::int64_t total = 0;
  for (const auto& r : res) total += r.retransmits;
  EXPECT_GT(total, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(total), sim.stats().retransmissions);
}

TEST(PktSim, ManyShortFlowsStatisticallySane) {
  DumbbellNet net;
  NetConfig cfg = DctcpConfig();
  Rng rng(77);
  std::vector<Flow> flows;
  Ns t = 0;
  for (int i = 0; i < 400; ++i) {
    t += static_cast<Ns>(rng.NextBounded(20 * kUs));
    const bool from_h0 = rng.NextDouble() < 0.5;
    flows.push_back(net.MakeFlow(i, from_h0 ? net.h0 : net.h1,
                                 from_h0 ? net.h0s : net.h1s,
                                 100 + static_cast<Bytes>(rng.NextBounded(20000)), t));
  }
  const auto res = RunPacketSim(net.topo, flows, cfg);
  std::vector<double> sldn;
  for (const auto& r : res) sldn.push_back(r.slowdown);
  const Summary s = Summarize(sldn);
  EXPECT_GE(s.p50, 1.0);
  EXPECT_GT(s.p99, s.p50);
  EXPECT_LT(s.p99, 100.0);
}

}  // namespace
}  // namespace m3
