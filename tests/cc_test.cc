// Direct unit tests of the congestion-control modules, exercising the
// control laws without the full simulator.
#include <gtest/gtest.h>

#include "pktsim/cc.h"
#include "pktsim/event_queue.h"
#include "pktsim/switch.h"
#include "util/parallel.h"

namespace m3 {
namespace {

CcContext MakeCtx() {
  CcContext ctx;
  ctx.nic_rate = GbpsToBpns(10.0);
  ctx.base_rtt = 20 * kUs;
  ctx.bdp = static_cast<Bytes>(ctx.nic_rate * static_cast<double>(ctx.base_rtt));
  return ctx;
}

NetConfig BaseCfg(CcType cc) {
  NetConfig cfg;
  cfg.cc = cc;
  return cfg;
}

// ------------------------------------------------------------------ DCTCP ---

TEST(CcDctcp, StartsAtInitWindowAndIsWindowOnly) {
  NetConfig cfg = BaseCfg(CcType::kDctcp);
  cfg.init_window = 20 * kKB;
  auto cc = MakeDctcp(cfg, MakeCtx());
  EXPECT_DOUBLE_EQ(cc->cwnd(), 20e3);
  EXPECT_EQ(cc->rate(), kNoPacing);
}

TEST(CcDctcp, SlowStartDoublesPerWindow) {
  NetConfig cfg = BaseCfg(CcType::kDctcp);
  cfg.init_window = 10 * kKB;
  auto cc = MakeDctcp(cfg, MakeCtx());
  // Ack a full window without marks: cwnd should roughly double.
  for (int i = 0; i < 10; ++i) cc->OnAck(1000, false, 20 * kUs, 0.0, i * 1000);
  EXPECT_NEAR(cc->cwnd(), 20e3, 1e3);
}

TEST(CcDctcp, MarkedEpochCutsWindowByAlphaHalf) {
  NetConfig cfg = BaseCfg(CcType::kDctcp);
  cfg.init_window = 16 * kKB;
  auto cc = MakeDctcp(cfg, MakeCtx());
  // Sustained full marking: alpha EWMA builds toward 1 over epochs, and
  // the multiplicative decrease eventually dominates additive increase.
  const double before = cc->cwnd();
  for (int i = 0; i < 400; ++i) cc->OnAck(1000, true, 20 * kUs, 0.0, i * 1000);
  EXPECT_LT(cc->cwnd(), before);
  // Never below one MTU.
  for (int i = 0; i < 2000; ++i) cc->OnAck(1000, true, 20 * kUs, 0.0, i * 1000);
  EXPECT_GE(cc->cwnd(), 1000.0);
}

TEST(CcDctcp, UnmarkedEpochsDoNotShrink) {
  NetConfig cfg = BaseCfg(CcType::kDctcp);
  auto cc = MakeDctcp(cfg, MakeCtx());
  double prev = cc->cwnd();
  for (int i = 0; i < 200; ++i) {
    cc->OnAck(1000, false, 20 * kUs, 0.0, i * 1000);
    EXPECT_GE(cc->cwnd(), prev);
    prev = cc->cwnd();
  }
}

TEST(CcDctcp, TimeoutCollapsesToOneMtu) {
  NetConfig cfg = BaseCfg(CcType::kDctcp);
  auto cc = MakeDctcp(cfg, MakeCtx());
  cc->OnTimeout(0);
  EXPECT_DOUBLE_EQ(cc->cwnd(), 1000.0);
}

// ------------------------------------------------------------------ DCQCN ---

TEST(CcDcqcn, StartsAtLineRate) {
  auto cc = MakeDcqcn(BaseCfg(CcType::kDcqcn), MakeCtx());
  EXPECT_DOUBLE_EQ(cc->rate(), GbpsToBpns(10.0));
}

TEST(CcDcqcn, CnpCutsRateAndRecoveryRestoresIt) {
  auto cc = MakeDcqcn(BaseCfg(CcType::kDcqcn), MakeCtx());
  Ns now = 1 * kMs;
  cc->OnAck(1000, true, 20 * kUs, 0.0, now);  // CNP
  const double after_cut = cc->rate();
  EXPECT_LT(after_cut, GbpsToBpns(10.0));
  // Unmarked ACKs over several timer periods: fast recovery raises rate.
  for (int i = 1; i <= 20; ++i) {
    now += 55 * kUs;
    cc->OnAck(1000, false, 20 * kUs, 0.0, now);
  }
  EXPECT_GT(cc->rate(), after_cut);
  EXPECT_LE(cc->rate(), GbpsToBpns(10.0) + 1e-12);
}

TEST(CcDcqcn, CnpReactionIsRateLimited) {
  auto cc = MakeDcqcn(BaseCfg(CcType::kDcqcn), MakeCtx());
  cc->OnAck(1000, true, 20 * kUs, 0.0, 1 * kMs);
  const double r1 = cc->rate();
  // Second mark 10us later is inside the CNP interval: no further cut.
  cc->OnAck(1000, true, 20 * kUs, 0.0, 1 * kMs + 10 * kUs);
  EXPECT_DOUBLE_EQ(cc->rate(), r1);
  // A mark after 50us cuts again.
  cc->OnAck(1000, true, 20 * kUs, 0.0, 1 * kMs + 60 * kUs);
  EXPECT_LT(cc->rate(), r1);
}

// ----------------------------------------------------------------- TIMELY ---

TEST(CcTimely, LowRttIncreasesRate) {
  NetConfig cfg = BaseCfg(CcType::kTimely);
  cfg.timely_tlow = 50 * kUs;
  auto cc = MakeTimely(cfg, MakeCtx());
  cc->OnTimeout(0);  // knock the rate below line rate first
  const double start = cc->rate();
  for (int i = 0; i < 10; ++i) cc->OnAck(1000, false, 20 * kUs, 0.0, i * 1000);
  EXPECT_GT(cc->rate(), start);
}

TEST(CcTimely, HighRttDecreasesRateProportionally) {
  NetConfig cfg = BaseCfg(CcType::kTimely);
  cfg.timely_thigh = 120 * kUs;
  auto cc = MakeTimely(cfg, MakeCtx());
  const double start = cc->rate();
  cc->OnAck(1000, false, 100 * kUs, 0.0, 0);  // prime prev_rtt
  cc->OnAck(1000, false, 400 * kUs, 0.0, 1000);
  EXPECT_LT(cc->rate(), start);
}

TEST(CcTimely, RisingGradientInBandDecreases) {
  NetConfig cfg = BaseCfg(CcType::kTimely);
  cfg.timely_tlow = 50 * kUs;
  cfg.timely_thigh = 200 * kUs;
  auto cc = MakeTimely(cfg, MakeCtx());
  // RTTs inside [Tlow, Thigh] but steeply rising.
  Ns rtt = 60 * kUs;
  cc->OnAck(1000, false, rtt, 0.0, 0);
  const double start = cc->rate();
  for (int i = 1; i <= 8; ++i) {
    rtt += 15 * kUs;
    cc->OnAck(1000, false, rtt, 0.0, i * 1000);
  }
  EXPECT_LT(cc->rate(), start);
}

// ------------------------------------------------------------------- HPCC ---

TEST(CcHpcc, HighUtilizationShrinksWindow) {
  NetConfig cfg = BaseCfg(CcType::kHpcc);
  cfg.init_window = 20 * kKB;
  cfg.hpcc_eta = 0.9;
  auto cc = MakeHpcc(cfg, MakeCtx());
  const double start = cc->cwnd();
  cc->OnAck(1000, false, 20 * kUs, /*int_u=*/2.0, 0);
  EXPECT_LT(cc->cwnd(), start);
}

TEST(CcHpcc, LowUtilizationGrowsWindowTowardCap) {
  NetConfig cfg = BaseCfg(CcType::kHpcc);
  cfg.init_window = 10 * kKB;
  auto cc = MakeHpcc(cfg, MakeCtx());
  Ns now = 0;
  for (int i = 0; i < 200; ++i) {
    now += 25 * kUs;  // > base_rtt so the reference window tracks
    cc->OnAck(1000, false, 20 * kUs, /*int_u=*/0.1, now);
  }
  const CcContext ctx = MakeCtx();
  EXPECT_GT(cc->cwnd(), 10e3);
  EXPECT_LE(cc->cwnd(), 2.0 * static_cast<double>(ctx.bdp) + 1.0);
}

TEST(CcHpcc, ConvergesNearEtaEquilibrium) {
  NetConfig cfg = BaseCfg(CcType::kHpcc);
  cfg.hpcc_eta = 0.9;
  auto cc = MakeHpcc(cfg, MakeCtx());
  // Feeding u == eta repeatedly should hold the window roughly steady
  // (additive probe aside).
  Ns now = 0;
  for (int i = 0; i < 50; ++i) {
    now += 25 * kUs;
    cc->OnAck(1000, false, 20 * kUs, 0.9, now);
  }
  const double w1 = cc->cwnd();
  for (int i = 0; i < 50; ++i) {
    now += 25 * kUs;
    cc->OnAck(1000, false, 20 * kUs, 0.9, now);
  }
  EXPECT_NEAR(cc->cwnd(), w1, 0.2 * w1);
}

TEST(CcHpcc, PacesAtWindowOverRtt) {
  NetConfig cfg = BaseCfg(CcType::kHpcc);
  auto cc = MakeHpcc(cfg, MakeCtx());
  EXPECT_NEAR(cc->rate(), cc->cwnd() / static_cast<double>(MakeCtx().base_rtt), 1e-9);
}

// ----------------------------------------------------------- factory etc. ---

TEST(CcFactory, DispatchesOnConfig) {
  const CcContext ctx = MakeCtx();
  EXPECT_EQ(MakeCc(BaseCfg(CcType::kDctcp), ctx)->rate(), kNoPacing);
  EXPECT_NE(MakeCc(BaseCfg(CcType::kDcqcn), ctx)->rate(), kNoPacing);
  EXPECT_NE(MakeCc(BaseCfg(CcType::kTimely), ctx)->rate(), kNoPacing);
  EXPECT_NE(MakeCc(BaseCfg(CcType::kHpcc), ctx)->rate(), kNoPacing);
}

// ----------------------------------------------------------- event queue ---

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue q;
  q.Push(100, EvType::kPace, 1);
  q.Push(50, EvType::kPace, 2);
  q.Push(100, EvType::kPace, 3);  // same time as the first: FIFO tie-break
  EXPECT_EQ(q.Pop().a, 2);
  EXPECT_EQ(q.Pop().a, 1);
  EXPECT_EQ(q.Pop().a, 3);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CountsPushes) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.Push(i, EvType::kRto, i);
  EXPECT_EQ(q.total_pushed(), 10u);
  EXPECT_EQ(q.size(), 10u);
}

// ----------------------------------------------------------- switch utils ---

TEST(SwitchUtil, DcqcnMarkingIsProbabilisticBetweenThresholds) {
  NetConfig cfg = BaseCfg(CcType::kDcqcn);
  cfg.dcqcn_kmin = 20 * kKB;
  cfg.dcqcn_kmax = 100 * kKB;
  Rng rng(3);
  int marks_mid = 0, marks_below = 0, marks_above = 0;
  for (int i = 0; i < 2000; ++i) {
    marks_below += ShouldMarkEcn(cfg, 10 * kKB, rng);
    marks_mid += ShouldMarkEcn(cfg, 60 * kKB, rng);
    marks_above += ShouldMarkEcn(cfg, 150 * kKB, rng);
  }
  EXPECT_EQ(marks_below, 0);
  EXPECT_GT(marks_mid, 50);      // ~10% of 2000
  EXPECT_LT(marks_mid, 400);
  EXPECT_EQ(marks_above, 2000);  // always above Kmax
}

TEST(SwitchUtil, HpccUtilizationCombinesQueueAndThroughput) {
  Port port;
  port.qbytes = 12500;  // = rate * 10us at 10G
  port.util_ewma = 0.5;
  EXPECT_NEAR(HpccUtilization(port, GbpsToBpns(10.0)), 1.5, 1e-9);
}

TEST(SwitchUtil, PortUtilEwmaTracksBusyLink) {
  Port port;
  const Bpns rate = GbpsToBpns(10.0);
  Ns now = 0;
  // Saturate: back-to-back 1048B frames, each 838.4ns.
  for (int i = 0; i < 1000; ++i) {
    now += 839;
    UpdatePortUtil(port, rate, 1048, now);
  }
  EXPECT_GT(port.util_ewma, 0.8);
}

// --------------------------------------------------------------- parallel ---

TEST(Parallel, RunsAllIndicesOnce) {
  std::vector<std::atomic<int>> counts(100);
  ParallelFor(100, [&](std::size_t i) { counts[i]++; }, 4);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      ParallelFor(10, [](std::size_t i) {
        if (i == 5) throw std::runtime_error("boom");
      }, 3),
      std::runtime_error);
}

TEST(Parallel, HandlesZeroAndSingle) {
  int ran = 0;
  ParallelFor(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  ParallelFor(1, [&](std::size_t) { ++ran; }, 8);
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace m3
