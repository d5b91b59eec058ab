// Resilience layer tests: Status/StatusOr semantics, the deterministic
// fault-injection registry, input validators, per-path fault isolation in
// the estimator (every degrade class), checkpoint load classification, and
// the no-fault bitwise-determinism guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/estimator.h"
#include "core/validate.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "util/fault.h"
#include "util/status.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/trace_io.h"

namespace m3 {
namespace {

// Every test that arms faults must leave the registry clean; a leaked armed
// site would poison unrelated tests in this binary.
class FaultGuard {
 public:
  FaultGuard() { FaultRegistry::Instance().Reset(); }
  ~FaultGuard() { FaultRegistry::Instance().Reset(); }
};

// ------------------------------------------------------------------ Status --

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);

  const Status s = Status::InvalidArgument("flows[3].size: -1 (must be > 0)");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("flows[3].size"), std::string::npos);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: flows[3].size: -1 (must be > 0)");
}

TEST(Status, AnnotatePrependsContextAndKeepsCode) {
  const Status s = Status::DataLoss("crc mismatch").Annotate("loading ckpt");
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "loading ckpt: crc mismatch");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c < kNumStatusCodes; ++c) {
    const char* name = StatusCodeName(static_cast<StatusCode>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
  }
}

TEST(StatusOr, ValueAndErrorPaths) {
  StatusOr<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> err = Status::NotFound("no such file");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  const std::vector<int> out = std::move(v).value();
  EXPECT_EQ(out.size(), 3u);
}

// ---------------------------------------------------------- fault registry --

TEST(FaultRegistry, DisarmedSitesAreFree) {
  FaultGuard guard;
  EXPECT_FALSE(FaultRegistry::Instance().any_armed());
  EXPECT_NO_THROW(FaultPointThrow("estimator/path_forward"));
  EXPECT_FALSE(FaultPointNan("model/forward"));
  // Hits are not even counted while disarmed.
  EXPECT_EQ(FaultRegistry::Instance().hits("estimator/path_forward"), 0u);
}

TEST(FaultRegistry, FireWindowIsExact) {
  FaultGuard guard;
  FaultSpec spec;
  spec.fire_from = 2;
  spec.fire_count = 2;
  FaultRegistry::Instance().Arm("site/a", spec);
  EXPECT_NO_THROW(FaultPointThrow("site/a"));   // hit 1
  EXPECT_THROW(FaultPointThrow("site/a"), FaultInjected);  // hit 2
  EXPECT_THROW(FaultPointThrow("site/a"), FaultInjected);  // hit 3
  EXPECT_NO_THROW(FaultPointThrow("site/a"));   // hit 4: healed
  EXPECT_EQ(FaultRegistry::Instance().hits("site/a"), 4u);
}

TEST(FaultRegistry, NanModeFiresAtNanPointsOnly) {
  FaultGuard guard;
  FaultSpec spec;
  spec.mode = FaultMode::kNan;
  FaultRegistry::Instance().Arm("site/nan", spec);
  EXPECT_TRUE(FaultPointNan("site/nan"));
  // A throw-type point at a nan-armed site must not throw (mode mismatch is
  // ignored, not escalated).
  EXPECT_NO_THROW(FaultPointThrow("site/nan"));
}

TEST(FaultRegistry, ResetDisarmsAndZeroesCounters) {
  FaultGuard guard;
  FaultRegistry::Instance().Arm("site/b");
  EXPECT_THROW(FaultPointThrow("site/b"), FaultInjected);
  FaultRegistry::Instance().Reset();
  EXPECT_FALSE(FaultRegistry::Instance().any_armed());
  EXPECT_NO_THROW(FaultPointThrow("site/b"));
  EXPECT_EQ(FaultRegistry::Instance().hits("site/b"), 0u);
}

TEST(FaultRegistry, ArmFromStringParsesWindowSyntax) {
  FaultGuard guard;
  const Status st =
      FaultRegistry::Instance().ArmFromString("site/c=throw@3x1,site/d=nan");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NO_THROW(FaultPointThrow("site/c"));  // hit 1
  EXPECT_NO_THROW(FaultPointThrow("site/c"));  // hit 2
  EXPECT_THROW(FaultPointThrow("site/c"), FaultInjected);  // hit 3 fires
  EXPECT_NO_THROW(FaultPointThrow("site/c"));  // x1: healed
  EXPECT_TRUE(FaultPointNan("site/d"));
  EXPECT_TRUE(FaultPointNan("site/d"));  // unlimited
}

TEST(FaultRegistry, ArmFromStringRejectsMalformedEntries) {
  FaultGuard guard;
  for (const char* bad :
       {"site", "site=", "site=explode", "site=throw@zero", "site=throw@0",
        "site=throwx-3", "=throw"}) {
    const Status st = FaultRegistry::Instance().ArmFromString(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    FaultRegistry::Instance().Reset();
  }
}

// -------------------------------------------------------------- validators --

TEST(Validate, TopologyRejectsBadLinks) {
  EXPECT_EQ(ValidateTopology(Topology()).code(), StatusCode::kInvalidArgument);

  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kHost);
  t.AddDuplexLink(a, b, /*rate=*/0.0, /*delay=*/1000);  // zero-rate link
  const Status st = ValidateTopology(t);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("rate"), std::string::npos) << st.ToString();
}

TEST(Validate, FlowsRejectBadFields) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  auto mk = [&](long long size, Ns arrival) {
    Flow f;
    f.id = 0;
    f.src = ft.host(0);
    f.dst = ft.host(1);
    f.size = size;
    f.arrival = arrival;
    f.path = ft.RouteBetween(0, 1, 0);
    return f;
  };

  EXPECT_EQ(ValidateFlows(ft.topo(), {}).code(), StatusCode::kInvalidArgument);

  {
    const Status st = ValidateFlows(ft.topo(), {mk(0, 0)});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("size"), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find("[0]"), std::string::npos) << st.ToString();
  }
  {
    // Non-monotone arrivals: index of the offender must be named.
    const Status st = ValidateFlows(ft.topo(), {mk(1000, 500), mk(1000, 100)});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("[1]"), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find("arrival"), std::string::npos) << st.ToString();
  }
  {
    Flow f = mk(1000, 0);
    f.dst = f.src;
    EXPECT_EQ(ValidateFlows(ft.topo(), {f}).code(), StatusCode::kInvalidArgument);
  }
  {
    Flow f = mk(1000, 0);
    f.priority = kNumPriorities;  // one past the last class
    EXPECT_EQ(ValidateFlows(ft.topo(), {f}).code(), StatusCode::kInvalidArgument);
  }
  {
    Flow f = mk(1000, 0);
    f.path = {static_cast<LinkId>(ft.topo().num_links() + 7)};
    EXPECT_EQ(ValidateFlows(ft.topo(), {f}).code(), StatusCode::kInvalidArgument);
  }
}

TEST(Validate, NetConfigRejectsInsaneKnobs) {
  {
    NetConfig cfg;
    cfg.init_window = 0;
    EXPECT_EQ(ValidateNetConfig(cfg).code(), StatusCode::kInvalidArgument);
  }
  {
    NetConfig cfg;
    cfg.buffer = 0;
    EXPECT_EQ(ValidateNetConfig(cfg).code(), StatusCode::kInvalidArgument);
  }
  {
    NetConfig cfg;
    cfg.dcqcn_kmin = 100 * kKB;
    cfg.dcqcn_kmax = 10 * kKB;  // inverted thresholds
    const Status st = ValidateNetConfig(cfg);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("dcqcn"), std::string::npos) << st.ToString();
  }
  EXPECT_TRUE(ValidateNetConfig(NetConfig()).ok());
}

TEST(Validate, M3OptionsRejectBadKnobs) {
  {
    M3Options opts;
    opts.num_paths = 0;
    EXPECT_EQ(ValidateM3Options(opts).code(), StatusCode::kInvalidArgument);
  }
  {
    M3Options opts;
    opts.deadline_seconds = -1.0;
    EXPECT_EQ(ValidateM3Options(opts).code(), StatusCode::kInvalidArgument);
  }
  {
    M3Options opts;
    opts.max_attempts = 0;
    EXPECT_EQ(ValidateM3Options(opts).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ValidateM3Options(M3Options()).ok());
}

TEST(Validate, DatasetOptionsRejectBadKnobs) {
  DatasetOptions opts;
  opts.num_scenarios = 0;
  EXPECT_EQ(ValidateDatasetOptions(opts).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(MakeSyntheticDatasetOr(opts).ok());
  EXPECT_THROW(MakeSyntheticDataset(opts), std::runtime_error);
}

// ------------------------------------------------ estimator fault isolation --
//
// All fault-driven estimator tests run single-threaded: the registry's hit
// counters are global per site, so which *path* observes the Nth hit is
// scheduling-dependent under parallelism. With one thread the mapping from
// hit index to path index is exact and the tests are deterministic.

struct QueryFixture {
  FatTree ft{FatTreeConfig::Small(2.0)};
  std::vector<Flow> flows;
  NetConfig cfg;
  M3Model model;
  M3Options opts;

  QueryFixture() : model(SmallModel()) {
    const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
    const auto sizes = MakeWebServer();
    WorkloadSpec wspec;
    wspec.num_flows = 400;
    wspec.seed = 3;
    flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
    opts.num_paths = 4;
    opts.num_threads = 1;
  }

  static M3ModelConfig SmallModel() {
    M3ModelConfig mcfg;
    mcfg.d_model = 32;
    mcfg.num_layers = 1;
    mcfg.ff_dim = 64;
    mcfg.mlp_hidden = 64;
    return mcfg;
  }

  NetworkEstimate Run() { return RunM3(ft.topo(), flows, cfg, model, opts); }
};

void ExpectPopulated(const NetworkEstimate& est) {
  ASSERT_FALSE(est.combined_pct.empty());
  for (double v : est.combined_pct) {
    EXPECT_TRUE(std::isfinite(v));
    // flowSim values can sit a few ulps below 1.0 (fct/ideal rounding); the
    // guard deliberately preserves them.
    EXPECT_GE(v, 1.0 - 1e-9);
  }
}

TEST(EstimatorResilience, ValidationRejectionShortCircuits) {
  QueryFixture q;
  q.flows[5].size = -4;
  const NetworkEstimate est = q.Run();
  EXPECT_EQ(est.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(est.status.message().find("[5]"), std::string::npos) << est.status.ToString();
  EXPECT_EQ(est.degradation.errors_validation, 1);
  EXPECT_TRUE(est.paths.empty());  // no compute ran
}

TEST(EstimatorResilience, BadPathCountIsRejectedBeforeAnyCompute) {
  for (int num_paths : {0, -1, 10'000'001}) {
    QueryFixture q;
    q.opts.num_paths = num_paths;
    const NetworkEstimate est = q.Run();
    EXPECT_EQ(est.status.code(), StatusCode::kInvalidArgument) << num_paths;
    EXPECT_TRUE(est.paths.empty());
  }
}

TEST(EstimatorResilience, ThrowingWorkerDegradesToFlowSim) {
  QueryFixture q;
  FaultGuard guard;
  // Path 0's primary estimator throws on both attempts; the flowSim
  // fallback (a different fault site) succeeds.
  FaultSpec spec;
  spec.fire_count = 2;
  FaultRegistry::Instance().Arm("estimator/path_forward", spec);

  const NetworkEstimate est = q.Run();
  ExpectPopulated(est);
  EXPECT_EQ(est.status.code(), StatusCode::kDegraded) << est.status.ToString();
  EXPECT_EQ(est.degradation.paths_ok, 3);
  EXPECT_EQ(est.degradation.paths_degraded, 1);
  EXPECT_EQ(est.degradation.paths_dropped, 0);
  EXPECT_EQ(est.degradation.paths_retried, 1);
  EXPECT_EQ(est.degradation.errors_exception, 2);
  EXPECT_NE(est.degradation.first_error.find("path 0"), std::string::npos)
      << est.degradation.first_error;
  EXPECT_EQ(est.paths.size(), 4u);
}

TEST(EstimatorResilience, RetryThenSuccessMatchesNoFaultRunBitwise) {
  QueryFixture q;
  const NetworkEstimate clean = q.Run();

  FaultGuard guard;
  FaultSpec spec;
  spec.fire_count = 1;  // first attempt of path 0 fails, retry succeeds
  FaultRegistry::Instance().Arm("estimator/path_forward", spec);
  const NetworkEstimate retried = q.Run();

  EXPECT_EQ(retried.status.code(), StatusCode::kOk) << retried.status.ToString();
  EXPECT_EQ(retried.degradation.paths_retried, 1);
  EXPECT_EQ(retried.degradation.paths_ok, 4);
  EXPECT_EQ(retried.degradation.errors_exception, 1);
  ASSERT_EQ(retried.combined_pct.size(), clean.combined_pct.size());
  for (std::size_t i = 0; i < clean.combined_pct.size(); ++i) {
    EXPECT_EQ(retried.combined_pct[i], clean.combined_pct[i]) << i;
  }
}

TEST(EstimatorResilience, NanForwardIsCountedAndContained) {
  QueryFixture q;
  FaultGuard guard;
  // Model forward emits all-NaN raw outputs on path 0's two attempts.
  FaultSpec spec;
  spec.mode = FaultMode::kNan;
  spec.fire_count = 2;
  FaultRegistry::Instance().Arm("model/forward", spec);

  const NetworkEstimate est = q.Run();
  ExpectPopulated(est);  // the NaN never reaches combined_pct
  EXPECT_EQ(est.status.code(), StatusCode::kDegraded) << est.status.ToString();
  EXPECT_EQ(est.degradation.errors_nonfinite, 2);
  EXPECT_EQ(est.degradation.paths_degraded, 1);
  EXPECT_NE(est.degradation.first_error.find("DATA_LOSS"), std::string::npos)
      << est.degradation.first_error;
}

TEST(EstimatorResilience, FallbackFaultDropsPathAndReweights) {
  QueryFixture q;
  FaultGuard guard;
  // Primary flowSim *and* the fallback share the estimator/path_flowsim
  // site: 3 firings exhaust primary(1) + retry(2) + fallback(3) for path 0,
  // which is then dropped; aggregation reweights across the survivors.
  FaultSpec spec;
  spec.fire_count = 3;
  FaultRegistry::Instance().Arm("estimator/path_flowsim", spec);

  const NetworkEstimate est = q.Run();
  ExpectPopulated(est);
  EXPECT_EQ(est.status.code(), StatusCode::kDegraded);
  EXPECT_EQ(est.degradation.paths_dropped, 1);
  EXPECT_EQ(est.degradation.paths_ok, 3);
  EXPECT_EQ(est.degradation.errors_exception, 3);
  // The dropped path contributes zero weight, not zero values.
  ASSERT_EQ(est.paths.size(), 4u);
  double dropped_weight = 0.0;
  for (double c : est.paths[0].counts) dropped_weight += c;
  EXPECT_EQ(dropped_weight, 0.0);
}

TEST(EstimatorResilience, StrictModeSurfacesFirstError) {
  QueryFixture q;
  q.opts.strict = true;
  FaultGuard guard;
  FaultRegistry::Instance().Arm("estimator/path_forward");  // always fires

  const NetworkEstimate est = q.Run();
  EXPECT_FALSE(est.status.ok());
  EXPECT_EQ(est.status.code(), StatusCode::kInternal) << est.status.ToString();
  EXPECT_NE(est.status.message().find("strict"), std::string::npos)
      << est.status.ToString();
  EXPECT_GE(est.degradation.paths_dropped, 1);
}

TEST(EstimatorResilience, TinyDeadlineReturnsPartialEstimate) {
  QueryFixture q;
  q.opts.num_paths = 8;
  q.opts.deadline_seconds = 1e-9;  // expires before the first path
  const NetworkEstimate est = q.Run();
  EXPECT_EQ(est.status.code(), StatusCode::kDeadlineExceeded) << est.status.ToString();
  EXPECT_GT(est.degradation.errors_deadline, 0);
  EXPECT_EQ(est.degradation.paths_ok + est.degradation.paths_degraded +
                est.degradation.paths_dropped,
            8);
}

TEST(EstimatorResilience, ArmedButNeverFiringRegistryIsBitwiseTransparent) {
  QueryFixture q;
  const NetworkEstimate clean = q.Run();

  FaultGuard guard;
  FaultSpec spec;
  spec.fire_from = 1000000;  // armed, counts hits, never fires
  FaultRegistry::Instance().Arm("estimator/path_forward", spec);
  FaultRegistry::Instance().Arm("model/forward", spec);
  const NetworkEstimate armed = q.Run();

  EXPECT_TRUE(armed.status.ok());
  EXPECT_EQ(armed.degradation.paths_ok, 4);
  ASSERT_EQ(armed.combined_pct.size(), clean.combined_pct.size());
  for (std::size_t i = 0; i < clean.combined_pct.size(); ++i) {
    EXPECT_EQ(armed.combined_pct[i], clean.combined_pct[i]) << i;
  }
  EXPECT_GT(FaultRegistry::Instance().hits("estimator/path_forward"), 0u);
}

TEST(EstimatorResilience, NoFaultRunReportsFullQuality) {
  QueryFixture q;
  const NetworkEstimate est = q.Run();
  EXPECT_TRUE(est.status.ok()) << est.status.ToString();
  EXPECT_EQ(est.degradation.paths_ok, 4);
  EXPECT_EQ(est.degradation.paths_retried, 0);
  EXPECT_EQ(est.degradation.paths_degraded, 0);
  EXPECT_EQ(est.degradation.paths_dropped, 0);
  EXPECT_EQ(est.degradation.clamped_values, 0);
  EXPECT_FALSE(est.degradation.Degraded());
  EXPECT_TRUE(est.degradation.first_error.empty());
}

TEST(EstimatorResilience, FlowSimOnlyDegradationFloorDropsOnFault) {
  // RunFlowSimOnly has no fallback below it; a persistent flowSim fault
  // drops the path rather than looping.
  QueryFixture q;
  FaultGuard guard;
  FaultSpec spec;
  spec.fire_count = 2;  // both primary attempts of path 0
  FaultRegistry::Instance().Arm("estimator/path_flowsim", spec);
  const NetworkEstimate est = RunFlowSimOnly(q.ft.topo(), q.flows, q.cfg, q.opts);
  ExpectPopulated(est);
  EXPECT_EQ(est.status.code(), StatusCode::kDegraded);
  EXPECT_EQ(est.degradation.paths_dropped, 1);
  EXPECT_EQ(est.degradation.paths_ok, 3);
}

// ------------------------------------------- batched forward (two phases) --
//
// RunM3 prepares every path first and then runs one stacked forward; a
// fault in that forward, a cache hit, a slot subset or a deadline must
// still act on each path alone, exactly as in a one-path-at-a-time run.

void ExpectSamePath(const PathEstimate& got, const PathEstimate& want, std::size_t i) {
  EXPECT_EQ(got.pct, want.pct) << "path " << i;
  EXPECT_EQ(got.counts, want.counts) << "path " << i;
}

TEST(EstimatorResilience, BatchedNanDegradesOnlyItsPath) {
  for (unsigned threads : {1u, 4u}) {
    QueryFixture q;
    q.opts.num_paths = 12;
    q.opts.num_threads = threads;
    const NetworkEstimate clean = q.Run();
    const NetworkEstimate floor = RunFlowSimOnly(q.ft.topo(), q.flows, q.cfg, q.opts);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    for (std::size_t k : {0u, 5u, 11u}) {
      FaultGuard guard;
      // model/forward is hit once per forward row, in path order, and once
      // more by the retry: fire on path k's row and on its retry.
      FaultSpec spec;
      spec.mode = FaultMode::kNan;
      spec.fire_from = k + 1;
      spec.fire_count = 2;
      FaultRegistry::Instance().Arm("model/forward", spec);
      const NetworkEstimate est = q.Run();
      EXPECT_EQ(est.status.code(), StatusCode::kDegraded) << est.status.ToString();
      EXPECT_EQ(est.degradation.paths_ok, 11);
      EXPECT_EQ(est.degradation.paths_degraded, 1);
      EXPECT_EQ(est.degradation.paths_retried, 1);
      EXPECT_EQ(est.degradation.errors_nonfinite, 2);
      EXPECT_EQ(est.degradation.errors_exception, 0);
      EXPECT_NE(est.degradation.first_error.find("path " + std::to_string(k) + ":"),
                std::string::npos)
          << est.degradation.first_error;
      ASSERT_EQ(est.paths.size(), clean.paths.size());
      for (std::size_t i = 0; i < est.paths.size(); ++i) {
        ExpectSamePath(est.paths[i], i == k ? floor.paths[i] : clean.paths[i], i);
      }
    }
  }
}

TEST(EstimatorResilience, BatchedNanOnOneRowRetriesToTheCleanAnswer) {
  QueryFixture q;
  q.opts.num_paths = 8;
  const NetworkEstimate clean = q.Run();
  FaultGuard guard;
  FaultSpec spec;
  spec.mode = FaultMode::kNan;
  spec.fire_from = 3;
  spec.fire_count = 1;  // path 2's stacked row; its one-row retry is clean
  FaultRegistry::Instance().Arm("model/forward", spec);
  const NetworkEstimate est = q.Run();
  EXPECT_TRUE(est.status.ok()) << est.status.ToString();
  EXPECT_EQ(est.degradation.paths_ok, 8);
  EXPECT_EQ(est.degradation.paths_retried, 1);
  EXPECT_EQ(est.degradation.errors_nonfinite, 1);
  for (std::size_t i = 0; i < est.paths.size(); ++i) {
    ExpectSamePath(est.paths[i], clean.paths[i], i);
  }
}

// The forward rows finish in work order: a caller's slot order, not path
// order, as a one-thread, one-path-at-a-time run visits them.
TEST(EstimatorResilience, BatchedNanFollowsTheSlotOrder) {
  for (unsigned threads : {1u, 4u}) {
    QueryFixture q;
    q.opts.num_paths = 8;
    q.opts.num_threads = threads;
    const NetworkEstimate clean = q.Run();
    const NetworkEstimate floor = RunFlowSimOnly(q.ft.topo(), q.flows, q.cfg, q.opts);
    const std::vector<std::uint32_t> slots = {7, 2, 5, 0};
    q.opts.sample_slots = &slots;
    FaultGuard guard;
    FaultSpec spec;
    spec.mode = FaultMode::kNan;
    spec.fire_from = 2;  // the second item's row, then its retry
    spec.fire_count = 2;
    FaultRegistry::Instance().Arm("model/forward", spec);
    const NetworkEstimate est = q.Run();
    EXPECT_EQ(est.degradation.paths_ok, 3);
    EXPECT_EQ(est.degradation.paths_degraded, 1);
    for (std::uint32_t slot : slots) {
      ExpectSamePath(est.paths[slot], slot == 2 ? floor.paths[slot] : clean.paths[slot], slot);
    }
  }
}

// Strict mode: a row that fails both attempts cancels the query, and the
// items after it are dropped, as when they would not have started.
TEST(EstimatorResilience, BatchedStrictNanDropsTheLaterPaths) {
  for (unsigned threads : {1u, 4u}) {
    QueryFixture q;
    q.opts.num_paths = 8;
    q.opts.num_threads = threads;
    q.opts.strict = true;
    const NetworkEstimate clean = q.Run();
    FaultGuard guard;
    FaultSpec spec;
    spec.mode = FaultMode::kNan;
    spec.fire_from = 3;  // path 2's row, then its retry
    spec.fire_count = 2;
    FaultRegistry::Instance().Arm("model/forward", spec);
    const NetworkEstimate est = q.Run();
    EXPECT_EQ(est.status.code(), StatusCode::kDataLoss) << est.status.ToString();
    EXPECT_NE(est.status.message().find("strict: path 2"), std::string::npos)
        << est.status.ToString();
    EXPECT_EQ(est.degradation.paths_ok, 2);
    EXPECT_EQ(est.degradation.paths_dropped, 6);
    EXPECT_EQ(est.degradation.errors_nonfinite, 2);
    for (std::size_t i = 0; i < est.paths.size(); ++i) {
      ExpectSamePath(est.paths[i], i < 2 ? clean.paths[i] : PathEstimate{}, i);
    }
  }
}

// An unsorted slot subset estimates exactly those slots, with the bits of
// the whole query.
TEST(EstimatorResilience, BatchedUnsortedSlotSubsetKeepsTheBits) {
  for (unsigned threads : {1u, 4u}) {
    QueryFixture q;
    q.opts.num_paths = 12;
    q.opts.num_threads = threads;
    const NetworkEstimate clean = q.Run();
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();

    const std::vector<std::uint32_t> evens = {10, 0, 4, 2, 8, 6};
    M3Options sub = q.opts;
    sub.sample_slots = &evens;
    const NetworkEstimate est = RunM3(q.ft.topo(), q.flows, q.cfg, q.model, sub);
    EXPECT_TRUE(est.status.ok()) << est.status.ToString();
    EXPECT_EQ(est.degradation.paths_ok, 6);
    for (std::size_t i = 0; i < est.paths.size(); ++i) {
      ExpectSamePath(est.paths[i], i % 2 == 0 ? clean.paths[i] : PathEstimate{}, i);
    }
  }
}

TEST(EstimatorResilience, BatchedDeadlineMidQueryKeepsFinishedPathsExact) {
  for (unsigned threads : {1u, 4u}) {
    QueryFixture q;
    q.opts.num_paths = 40;
    q.opts.num_threads = threads;
    const NetworkEstimate clean = q.Run();
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    q.opts.deadline_seconds = clean.wall_seconds / 3.0;
    const NetworkEstimate est = q.Run();
    const DegradationReport& rep = est.degradation;
    EXPECT_EQ(rep.paths_ok + rep.paths_degraded + rep.paths_dropped, 40);
    EXPECT_EQ(rep.paths_degraded, 0);
    EXPECT_EQ(rep.errors_deadline, rep.paths_dropped);
    EXPECT_EQ(est.status.code(),
              rep.paths_dropped > 0 ? StatusCode::kDeadlineExceeded : StatusCode::kOk)
        << est.status.ToString();
    int dropped = 0;
    for (std::size_t i = 0; i < est.paths.size(); ++i) {
      double weight = 0.0;
      for (double c : est.paths[i].counts) weight += c;
      if (weight == 0.0) {
        ++dropped;
      } else {
        ExpectSamePath(est.paths[i], clean.paths[i], i);
      }
    }
    EXPECT_EQ(dropped, rep.paths_dropped);
  }
}

// --------------------------------------------------------- aggregation guard --

TEST(AggregationGuard, ClampsNonFiniteAndNonPositiveValues) {
  std::vector<PathEstimate> paths(2);
  for (auto& pe : paths) {
    pe.counts[0] = 10.0;
    for (auto& row : pe.pct) row.fill(2.0);
  }
  paths[0].pct[0][4] = std::nan("");
  paths[0].pct[0][5] = std::numeric_limits<double>::infinity();
  paths[0].pct[0][6] = -0.25;  // physically impossible
  // A slowdown a few ulps below 1.0 is legitimate fct/ideal rounding and
  // must pass through untouched (bitwise reproducibility of clean runs).
  const double almost_one = std::nextafter(1.0, 0.0);
  paths[0].pct[0][7] = almost_one;
  // Bucket 3 has zero count in both paths: its values are dead weight and
  // must not be touched or counted.
  paths[1].pct[3][0] = std::nan("");

  EXPECT_EQ(ClampPathEstimates(paths), 3);
  EXPECT_EQ(paths[0].pct[0][4], 1.0);
  EXPECT_EQ(paths[0].pct[0][5], 1.0);
  EXPECT_EQ(paths[0].pct[0][6], 1.0);
  EXPECT_EQ(paths[0].pct[0][7], almost_one);
  EXPECT_TRUE(std::isnan(paths[1].pct[3][0]));  // unpopulated bucket untouched
  EXPECT_EQ(ClampPathEstimates(paths), 0);  // idempotent
}

// ----------------------------------------------------------- checkpoint load --

TEST(CheckpointResilience, TryLoadClassifiesFailures) {
  M3Model model(QueryFixture::SmallModel());
  const std::string dir = TempPath("resilience_ckpt");
  const std::string path = dir + "/model.ckpt";

  // Missing file -> kNotFound.
  {
    const auto r = model.TryLoad(dir + "/never_written.ckpt");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << r.status().ToString();
  }

  model.Save(path);
  ASSERT_TRUE(model.TryLoad(path).ok());

  // Flip one payload byte -> CRC mismatch -> kDataLoss.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    char b = 0;
    f.seekg(64);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(64);
    f.write(&b, 1);
    f.close();
    const auto r = model.TryLoad(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << r.status().ToString();
    EXPECT_NE(r.status().message().find(path), std::string::npos)
        << r.status().ToString();
  }

  // A model compiled with different dims -> kInvalidArgument, with the
  // mismatched shapes named.
  {
    M3Model good(QueryFixture::SmallModel());
    good.Save(path);
    M3ModelConfig other = QueryFixture::SmallModel();
    other.d_model = 48;
    M3Model wrong(other);
    const auto r = wrong.TryLoad(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().ToString();
  }

  // Injected fault at the load boundary is catchable as CheckpointError.
  {
    FaultGuard guard;
    FaultRegistry::Instance().Arm("checkpoint/load");
    EXPECT_THROW(model.Load(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace m3
