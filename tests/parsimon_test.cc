#include <gtest/gtest.h>

#include "parsimon/parsimon.h"
#include "pktsim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/parking_lot.h"
#include "util/stats.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3 {
namespace {

TEST(Parsimon, UnloadedFlowHasNoExtraDelay) {
  ParkingLot pl(2, GbpsToBpns(10), 1000, /*hosts_at_ends=*/true);
  Flow f{0, pl.switch_at(0), pl.switch_at(2), 100000, 0,
         pl.RouteBetween(pl.switch_at(0), 0, pl.switch_at(2), 2)};
  ParsimonOptions opts;
  const auto res = RunParsimon(pl.topo(), {f}, opts);
  ASSERT_EQ(res.size(), 1u);
  // Alone on every link, the per-link deltas include only CC ramp-up.
  EXPECT_GE(res[0].slowdown, 1.0);
  EXPECT_LT(res[0].slowdown, 2.5);
}

TEST(Parsimon, ResultsAlignWithFlows) {
  ParkingLot pl(2, GbpsToBpns(10), 1000, /*hosts_at_ends=*/true);
  std::vector<Flow> flows;
  for (int i = 0; i < 10; ++i) {
    flows.push_back(Flow{static_cast<FlowId>(i), pl.switch_at(0), pl.switch_at(2),
                         1000 * (i + 1), i * 1000,
                         pl.RouteBetween(pl.switch_at(0), 0, pl.switch_at(2), 2)});
  }
  ParsimonOptions opts;
  const auto res = RunParsimon(pl.topo(), flows, opts);
  ASSERT_EQ(res.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(res[i].id, flows[i].id);
    EXPECT_EQ(res[i].size, flows[i].size);
    EXPECT_EQ(res[i].ideal_fct, IdealFct(pl.topo(), flows[i].path, flows[i].size));
  }
}

TEST(Parsimon, SparseFlowIdsMatchDenseIds) {
  // Ids are caller labels; flows are indexed by position.
  ParkingLot pl(2, GbpsToBpns(10), 1000, /*hosts_at_ends=*/true);
  std::vector<Flow> flows;
  for (int i = 0; i < 10; ++i) {
    flows.push_back(Flow{static_cast<FlowId>(i), pl.switch_at(0), pl.switch_at(2),
                         1000 * (i + 1), i * 1000,
                         pl.RouteBetween(pl.switch_at(0), 0, pl.switch_at(2), 2)});
  }
  ParsimonOptions opts;
  const auto dense = RunParsimon(pl.topo(), flows, opts);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].id = static_cast<FlowId>(100000000 - 7 * static_cast<int>(i));
  }
  const auto sparse = RunParsimon(pl.topo(), flows, opts);
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(sparse[i].id, flows[i].id);
    EXPECT_EQ(sparse[i].fct, dense[i].fct);
  }
}

TEST(Parsimon, DeltaSummingOvercountsTransportLimitedFlows) {
  // The paper's Table 5 insight: when the init window (not congestion)
  // limits a flow, Parsimon counts the window delay once per link, so a
  // longer path means more over-counting relative to the true simulation.
  ParkingLot pl(6, GbpsToBpns(10), 5000, /*hosts_at_ends=*/true);
  NetConfig cfg;
  cfg.init_window = 5 * kKB;  // well below path BDP
  std::vector<Flow> flows;
  for (int i = 0; i < 20; ++i) {
    flows.push_back(Flow{static_cast<FlowId>(i), pl.switch_at(0), pl.switch_at(6),
                         60 * kKB, i * 500 * kUs,
                         pl.RouteBetween(pl.switch_at(0), 0, pl.switch_at(6), 6)});
  }
  ParsimonOptions popts;
  popts.cfg = cfg;
  const auto parsimon = RunParsimon(pl.topo(), flows, popts);
  const auto truth = RunPacketSim(pl.topo(), flows, cfg);
  double parsimon_mean = 0.0, truth_mean = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    parsimon_mean += parsimon[i].slowdown;
    truth_mean += truth[i].slowdown;
  }
  EXPECT_GT(parsimon_mean, truth_mean * 1.3);
}

TEST(Parsimon, TracksGroundTruthOnRealWorkloadCoarsely) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec spec;
  spec.num_flows = 400;
  spec.max_load = 0.4;
  spec.seed = 17;
  const auto wl = GenerateWorkload(ft, tm, *sizes, spec);

  NetConfig cfg;
  ParsimonOptions popts;
  popts.cfg = cfg;
  const auto est = RunParsimon(ft.topo(), wl.flows, popts);
  const auto truth = RunPacketSim(ft.topo(), wl.flows, cfg);

  std::vector<double> est_sldn, true_sldn;
  for (std::size_t i = 0; i < wl.flows.size(); ++i) {
    est_sldn.push_back(est[i].slowdown);
    true_sldn.push_back(truth[i].slowdown);
  }
  const double p99_est = Percentile(est_sldn, 99);
  const double p99_true = Percentile(true_sldn, 99);
  // Parsimon is approximate but must be the right order of magnitude.
  EXPECT_GT(p99_est, p99_true * 0.4);
  EXPECT_LT(p99_est, p99_true * 4.0);
}

TEST(Parsimon, SlowdownsNeverBelowOne) {
  ParkingLot pl(2, GbpsToBpns(10), 1000, /*hosts_at_ends=*/true);
  std::vector<Flow> flows;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    flows.push_back(Flow{static_cast<FlowId>(i), pl.switch_at(0), pl.switch_at(2),
                         100 + static_cast<Bytes>(rng.NextBounded(50000)),
                         static_cast<Ns>(rng.NextBounded(kMs)),
                         pl.RouteBetween(pl.switch_at(0), 0, pl.switch_at(2), 2)});
  }
  ParsimonOptions opts;
  for (const auto& r : RunParsimon(pl.topo(), flows, opts)) {
    EXPECT_GE(r.slowdown, 1.0);
  }
}

}  // namespace
}  // namespace m3
