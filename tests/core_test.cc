#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/aggregate.h"
#include "core/dataset.h"
#include "core/estimator.h"
#include "core/model.h"
#include "core/scenario.h"
#include "core/trainer.h"
#include "temp_path.h"
#include "topo/fat_tree.h"
#include "workload/generator.h"

namespace m3 {
namespace {

// ------------------------------------------------------------ feature map ---

TEST(FeatureMap, BucketBoundaries) {
  EXPECT_EQ(SizeBucketOf(1), 0);
  EXPECT_EQ(SizeBucketOf(250), 0);
  EXPECT_EQ(SizeBucketOf(251), 1);
  EXPECT_EQ(SizeBucketOf(50000), 8);
  EXPECT_EQ(SizeBucketOf(50001), 9);
  EXPECT_EQ(SizeBucketOf(100 * kMB), 9);
  EXPECT_EQ(OutputBucketOf(1000), 0);
  EXPECT_EQ(OutputBucketOf(1001), 1);
  EXPECT_EQ(OutputBucketOf(10001), 2);
  EXPECT_EQ(OutputBucketOf(50001), 3);
}

TEST(FeatureMap, CountsAndPercentilesPerBucket) {
  std::vector<SizedSlowdown> flows;
  for (int i = 1; i <= 100; ++i) {
    flows.push_back({100, static_cast<double>(i)});       // bucket 0
    flows.push_back({100000, 1.0 + 0.01 * i});            // bucket 9
  }
  const FeatureMap map = BuildFeatureMap(flows);
  EXPECT_DOUBLE_EQ(map.counts[0], 100.0);
  EXPECT_DOUBLE_EQ(map.counts[9], 100.0);
  EXPECT_DOUBLE_EQ(map.counts[4], 0.0);
  // p99 of bucket 0 is ~99.
  EXPECT_NEAR(map.pct[0][98], 99.0, 1.1);
  // Percentiles are monotone.
  for (int p = 1; p < kNumPercentiles; ++p) {
    EXPECT_LE(map.pct[0][static_cast<std::size_t>(p - 1)], map.pct[0][static_cast<std::size_t>(p)]);
  }
}

TEST(FeatureMap, FlattenShapeAndLogEncoding) {
  std::vector<SizedSlowdown> flows{{100, std::exp(1.0)}};
  const ml::Tensor t = FlattenFeature(BuildFeatureMap(flows));
  ASSERT_EQ(t.rows(), 1);
  ASSERT_EQ(t.cols(), kFeatureDim);
  // All 100 percentiles of bucket 0 equal e -> log = 1.
  for (int p = 0; p < 100; ++p) EXPECT_NEAR(t.at(0, p), 1.0f, 1e-5f);
  // Empty buckets encode as zeros.
  EXPECT_FLOAT_EQ(t.at(0, 5 * 100 + 3), 0.0f);
}

TEST(FeatureMap, TargetRoundTripThroughDecode) {
  std::vector<SizedSlowdown> flows;
  for (int i = 0; i < 200; ++i) flows.push_back({5000, 2.0 + (i % 10) * 0.3});
  const TargetDist t = BuildTarget(flows);
  ASSERT_TRUE(t.has[1]);  // (1KB, 10KB]
  const auto decoded = DecodeOutput(TargetToTensor(t));
  for (int p = 0; p < kNumPercentiles; ++p) {
    EXPECT_NEAR(decoded[1][static_cast<std::size_t>(p)], t.pct[1][static_cast<std::size_t>(p)], 1e-3);
  }
}

TEST(FeatureMap, MaskCoversOnlyPopulatedBuckets) {
  std::vector<SizedSlowdown> flows{{500, 1.5}, {20000, 3.0}};
  const TargetDist t = BuildTarget(flows);
  const ml::Tensor mask = TargetMask(t);
  EXPECT_FLOAT_EQ(mask.at(0, 0), 1.0f);             // bucket 0 populated
  EXPECT_FLOAT_EQ(mask.at(0, 100), 0.0f);           // bucket 1 empty
  EXPECT_FLOAT_EQ(mask.at(0, 200), 1.0f);           // bucket 2 populated
  EXPECT_FLOAT_EQ(mask.at(0, 300), 0.0f);           // bucket 3 empty
}

TEST(FeatureMap, DecodeClampsAndMonotonizes) {
  ml::Tensor out(1, kNumOutputBuckets * kNumPercentiles);
  out.Fill(-1.0f);          // exp(-1) < 1 -> clamps to 1
  out.at(0, 1) = 2.0f;      // spike; later entries must not drop below it
  out.at(0, 2) = 0.0f;
  const auto dist = DecodeOutput(out);
  EXPECT_DOUBLE_EQ(dist[0][0], 1.0);
  EXPECT_GE(dist[0][2], dist[0][1]);
}

// ----------------------------------------------------------------- spec ---

TEST(NetSpec, EncodesPathGeometryAndConfig) {
  SyntheticSpec spec;
  spec.num_links = 4;
  spec.num_fg = 50;
  spec.bg_ratio = 1.0;
  spec.seed = 3;
  const PathScenario sc = BuildSyntheticScenario(spec);
  NetConfig cfg;
  cfg.cc = CcType::kHpcc;
  const PathSpecInfo info = ComputePathSpec(sc, cfg);
  EXPECT_EQ(info.num_links, 4);
  EXPECT_GT(info.base_rtt, 0);
  EXPECT_GT(info.bdp, 0);
  EXPECT_DOUBLE_EQ(info.num_fg, 50.0);

  const ml::Tensor enc = EncodeSpec(cfg, info);
  ASSERT_EQ(enc.cols(), kSpecDim);
  // One-hot: HPCC is index 3.
  EXPECT_FLOAT_EQ(enc.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(enc.at(0, 3), 1.0f);
}

// -------------------------------------------------------------- scenario ---

TEST(Scenario, RespectsSpecShape) {
  SyntheticSpec spec;
  spec.num_links = 6;
  spec.num_fg = 100;
  spec.bg_ratio = 2.0;
  spec.seed = 11;
  const PathScenario sc = BuildSyntheticScenario(spec);
  EXPECT_EQ(sc.num_links, 6);
  EXPECT_EQ(sc.num_fg(), 100u);
  EXPECT_EQ(sc.flows.size(), 300u);
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    EXPECT_TRUE(sc.lot->topo().ValidateRoute(sc.flows[i].src, sc.flows[i].dst, sc.flows[i].path));
    if (!sc.is_fg[i]) {
      EXPECT_FALSE(sc.entry_hop[i] == 0 && sc.exit_hop[i] == 6)
          << "background flow covering the whole path";
    }
  }
}

TEST(Scenario, LoadScalingHitsTarget) {
  for (double load : {0.3, 0.7}) {
    SyntheticSpec spec;
    spec.num_links = 2;
    spec.num_fg = 400;
    spec.bg_ratio = 1.0;
    spec.max_load = load;
    spec.seed = 13;
    const PathScenario sc = BuildSyntheticScenario(spec);
    // Recompute chain-link loads over the arrival horizon.
    Ns horizon = 0;
    std::array<double, 2> bytes{};
    for (std::size_t i = 0; i < sc.flows.size(); ++i) {
      horizon = std::max(horizon, sc.flows[i].arrival);
      for (int h = sc.entry_hop[i]; h < sc.exit_hop[i]; ++h) {
        bytes[static_cast<std::size_t>(h)] += static_cast<double>(sc.flows[i].size);
      }
    }
    double max_load = 0.0;
    for (int h = 0; h < 2; ++h) {
      const Link& l = sc.lot->topo().link(sc.lot->path_link(h));
      max_load = std::max(max_load, bytes[static_cast<std::size_t>(h)] /
                                        (l.rate * static_cast<double>(horizon)));
    }
    EXPECT_NEAR(max_load, load, load * 0.1);
  }
}

TEST(Scenario, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.seed = 21;
  spec.num_fg = 50;
  const PathScenario a = BuildSyntheticScenario(spec);
  const PathScenario b = BuildSyntheticScenario(spec);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].size, b.flows[i].size);
    EXPECT_EQ(a.flows[i].arrival, b.flows[i].arrival);
  }
}

TEST(Scenario, SampleCoversTable2Space) {
  Rng rng(31);
  std::set<int> lengths;
  std::set<int> families;
  for (int i = 0; i < 200; ++i) {
    const SyntheticSpec s = SyntheticSpec::Sample(rng, 100);
    lengths.insert(s.num_links);
    families.insert(static_cast<int>(s.family));
    EXPECT_GE(s.theta, 5e3);
    EXPECT_LE(s.theta, 50e3);
    EXPECT_GE(s.sigma, 1.0);
    EXPECT_LE(s.sigma, 2.0);
    EXPECT_GE(s.max_load, 0.2);
    EXPECT_LE(s.max_load, 0.8);
  }
  EXPECT_EQ(lengths.size(), 3u);
  EXPECT_EQ(families.size(), 4u);
}

// --------------------------------------------------------------- dataset ---

TEST(Dataset, SampleShapesAreConsistent) {
  SyntheticSpec spec;
  spec.num_links = 4;
  spec.num_fg = 120;
  spec.bg_ratio = 1.5;
  spec.seed = 17;
  const PathScenario sc = BuildSyntheticScenario(spec);
  NetConfig cfg;
  const Sample s = BuildSample(sc, cfg);
  EXPECT_EQ(s.fg_feat.cols(), kFeatureDim);
  EXPECT_EQ(s.bg_seq.rows(), 4);
  EXPECT_EQ(s.bg_seq.cols(), kFeatureDim);
  EXPECT_EQ(s.spec.cols(), kSpecDim);
  EXPECT_EQ(s.target.cols(), 400);
  EXPECT_EQ(s.mask.cols(), 400);
  // Foreground flows exist, so at least one output bucket is populated.
  float mask_sum = 0.0f;
  for (float v : s.mask.vec()) mask_sum += v;
  EXPECT_GT(mask_sum, 0.0f);
}

TEST(Dataset, FlowSimUnderestimatesTails) {
  // The motivating observation (Fig. 6): flowSim underestimates slowdown,
  // especially for small flows. Check gt p99 >= flowSim p99 for the small
  // bucket in a loaded scenario.
  SyntheticSpec spec;
  spec.num_links = 4;
  spec.num_fg = 400;
  spec.bg_ratio = 2.0;
  spec.max_load = 0.7;
  spec.theta = 10000.0;
  spec.seed = 23;
  const PathScenario sc = BuildSyntheticScenario(spec);
  NetConfig cfg;  // DCTCP
  const Sample s = BuildSample(sc, cfg);
  ASSERT_TRUE(s.gt.has[0]);
  ASSERT_TRUE(s.flowsim.has[0]);
  EXPECT_GE(s.gt.pct[0][98], s.flowsim.pct[0][98] * 0.95);
}

TEST(Dataset, SyntheticDatasetGeneration) {
  DatasetOptions opts;
  opts.num_scenarios = 4;
  opts.num_fg = 60;
  opts.seed = 3;
  const auto samples = MakeSyntheticDataset(opts);
  ASSERT_EQ(samples.size(), 4u);
  for (const Sample& s : samples) {
    EXPECT_EQ(s.fg_feat.cols(), kFeatureDim);
    EXPECT_GE(s.bg_seq.rows(), 2);
    EXPECT_LE(s.bg_seq.rows(), 6);
  }
}

// ----------------------------------------------------------------- model ---

TEST(Model, PredictShapeAndDeterminism) {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  M3Model model(cfg);
  ml::Tensor fg(1, kFeatureDim), bg(3, kFeatureDim), spec(1, kSpecDim);
  fg.Fill(0.5f);
  bg.Fill(0.2f);
  spec.Fill(0.1f);
  const auto a = model.Predict(fg, bg, spec);
  const auto b = model.Predict(fg, bg, spec);
  for (int i = 0; i < kNumOutputBuckets; ++i) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)],
                       b[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)]);
      EXPECT_GE(a[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)], 1.0);
    }
  }
}

TEST(Model, ContextAblationChangesOutput) {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  M3Model model(cfg);
  ml::Tensor fg(1, kFeatureDim), bg(2, kFeatureDim), spec(1, kSpecDim);
  fg.Fill(0.5f);
  bg.Fill(0.7f);
  const auto with_ctx = model.Predict(fg, bg, spec, /*use_context=*/true);
  const auto without = model.Predict(fg, bg, spec, /*use_context=*/false);
  double diff = 0.0;
  for (int p = 0; p < kNumPercentiles; ++p) diff += std::abs(with_ctx[0][static_cast<std::size_t>(p)] - without[0][static_cast<std::size_t>(p)]);
  EXPECT_GT(diff, 1e-9);
}

TEST(Model, SaveLoadPreservesPredictions) {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_layers = 1;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  cfg.init_seed = 99;
  M3Model model(cfg);
  ml::Tensor fg(1, kFeatureDim), bg(2, kFeatureDim), spec(1, kSpecDim);
  fg.Fill(0.3f);
  const auto before = model.Predict(fg, bg, spec);
  const std::string path = TempPath("m3_model_test.ckpt");
  model.Save(path);

  M3ModelConfig cfg2 = cfg;
  cfg2.init_seed = 1;  // different random init
  M3Model loaded(cfg2);
  loaded.Load(path);
  const auto after = loaded.Predict(fg, bg, spec);
  for (int p = 0; p < kNumPercentiles; ++p) {
    EXPECT_DOUBLE_EQ(after[2][static_cast<std::size_t>(p)], before[2][static_cast<std::size_t>(p)]);
  }
  std::remove(path.c_str());
}

TEST(Model, TrainingReducesLoss) {
  DatasetOptions dopts;
  dopts.num_scenarios = 12;
  dopts.num_fg = 80;
  dopts.seed = 29;
  const auto samples = MakeSyntheticDataset(dopts);

  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  M3Model model(mcfg);
  TrainOptions topts;
  topts.epochs = 15;
  topts.batch_size = 4;
  topts.val_frac = 0.0;
  const TrainReport report = TrainModel(model, samples, topts);
  ASSERT_EQ(report.train_loss.size(), 15u);
  EXPECT_LT(report.train_loss.back(), report.train_loss.front() * 0.8);
}

// ------------------------------------------------------------- aggregate ---

TEST(Aggregate, WeightedPercentileBasics) {
  std::vector<std::pair<double, double>> w{{1.0, 1.0}, {2.0, 1.0}, {3.0, 2.0}};
  EXPECT_DOUBLE_EQ(WeightedPercentile(w, 100), 3.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile(w, 25), 1.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile(w, 50), 2.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile({}, 50), 0.0);
}

TEST(Aggregate, SinglePathPassesThrough) {
  PathEstimate pe;
  for (int p = 0; p < kNumPercentiles; ++p) pe.pct[0][static_cast<std::size_t>(p)] = 1.0 + p * 0.1;
  pe.counts[0] = 10.0;
  const auto agg = AggregateBuckets({pe});
  ASSERT_EQ(agg[0].size(), 100u);
  // Aggregating one path reproduces its own percentiles (within grid step).
  EXPECT_NEAR(agg[0][98], pe.pct[0][98], 0.2);
  EXPECT_TRUE(agg[1].empty());
}

TEST(Aggregate, CountWeightingDominates) {
  // Path A: slowdown ~1 with tiny weight; path B: slowdown ~10 with huge
  // weight. The aggregate p50 must be near 10.
  PathEstimate a, b;
  for (int p = 0; p < kNumPercentiles; ++p) {
    a.pct[0][static_cast<std::size_t>(p)] = 1.0;
    b.pct[0][static_cast<std::size_t>(p)] = 10.0;
  }
  a.counts[0] = 1.0;
  b.counts[0] = 1000.0;
  const auto agg = AggregateBuckets({a, b});
  EXPECT_NEAR(agg[0][49], 10.0, 1e-9);
}

TEST(Aggregate, CombineBucketsMixesByCount) {
  std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;
  std::array<double, kNumOutputBuckets> counts{};
  bucket_pct[0].assign(100, 2.0);
  counts[0] = 900.0;
  bucket_pct[3].assign(100, 8.0);
  counts[3] = 100.0;
  const auto combined = CombineBuckets(bucket_pct, counts);
  ASSERT_EQ(combined.size(), 100u);
  EXPECT_DOUBLE_EQ(combined[49], 2.0);   // median from the dominant bucket
  EXPECT_DOUBLE_EQ(combined[98], 8.0);   // tail from the rare-but-slow bucket
}

// CombineBuckets sorts once and sweeps; it must give bit for bit the 100
// WeightedPercentile calls it replaces, on the pairs it documents.
TEST(Aggregate, CombineBucketsSweepEqualsPerPercentile) {
  Rng rng(20);
  const double tiny_weights[] = {0.0, 1e-300, 1e-12, 3.0, 1e6, -2.0};
  for (int trial = 0; trial < 300; ++trial) {
    std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;
    std::array<double, kNumOutputBuckets> counts{};
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      const auto ub = static_cast<std::size_t>(b);
      const std::size_t sizes[] = {0, 1, 7, 100, 100};
      bucket_pct[ub].resize(sizes[rng.NextBounded(5)]);
      for (double& v : bucket_pct[ub]) {
        // Half the values come from a 4-value grid, so ties are common.
        v = rng.NextBounded(2) == 0 ? 1.0 + 0.5 * static_cast<double>(rng.NextBounded(4))
                                    : 1.0 + 20.0 * rng.NextDouble();
      }
      counts[ub] = rng.NextBounded(3) == 0 ? tiny_weights[rng.NextBounded(6)]
                                           : 1.0 + 1000.0 * rng.NextDouble();
    }
    std::vector<std::pair<double, double>> weighted;
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      const auto& pct = bucket_pct[static_cast<std::size_t>(b)];
      const double w = counts[static_cast<std::size_t>(b)];
      if (pct.empty() || w <= 0.0) continue;
      for (double v : pct) weighted.emplace_back(v, w / static_cast<double>(pct.size()));
    }
    const std::vector<double> swept = CombineBuckets(bucket_pct, counts);
    ASSERT_EQ(swept.size(), static_cast<std::size_t>(kNumPercentiles));
    for (int p = 1; p <= kNumPercentiles; ++p) {
      const double want = WeightedPercentile(weighted, static_cast<double>(p));
      const double got = swept[static_cast<std::size_t>(p - 1)];
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "trial " << trial << " p" << p << ": " << got << " vs " << want;
    }
  }
}

TEST(Aggregate, BucketSlowdownsSplitsBySize) {
  std::vector<FlowResult> results;
  FlowResult r;
  r.size = 500;
  r.slowdown = 2.0;
  results.push_back(r);
  r.size = 5000;
  r.slowdown = 3.0;
  results.push_back(r);
  const auto buckets = BucketSlowdowns(results);
  EXPECT_EQ(buckets[0].size(), 1u);
  EXPECT_EQ(buckets[1].size(), 1u);
  const auto p99 = BucketPercentile(buckets, 99);
  EXPECT_DOUBLE_EQ(p99[0], 2.0);
  EXPECT_DOUBLE_EQ(p99[3], 0.0);  // empty bucket
}

// ------------------------------------------------------------- estimator ---

TEST(Estimator, EndToEndPipelinesAgreeOnShape) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec wspec;
  wspec.num_flows = 600;
  wspec.max_load = 0.4;
  wspec.seed = 41;
  const auto wl = GenerateWorkload(ft, tm, *sizes, wspec);

  NetConfig cfg;
  M3Options opts;
  opts.num_paths = 5;

  M3ModelConfig mcfg;
  mcfg.d_model = 32;
  mcfg.num_layers = 1;
  mcfg.ff_dim = 64;
  mcfg.mlp_hidden = 64;
  M3Model model(mcfg);

  const NetworkEstimate m3_est = RunM3(ft.topo(), wl.flows, cfg, model, opts);
  const NetworkEstimate path_est = RunNs3Path(ft.topo(), wl.flows, cfg, opts);
  const NetworkEstimate fluid_est = RunFlowSimOnly(ft.topo(), wl.flows, cfg, opts);

  EXPECT_EQ(m3_est.paths.size(), 5u);
  EXPECT_EQ(path_est.paths.size(), 5u);
  EXPECT_EQ(fluid_est.paths.size(), 5u);
  EXPECT_FALSE(m3_est.combined_pct.empty());
  EXPECT_GT(m3_est.CombinedP99(), 0.0);
  EXPECT_GT(path_est.CombinedP99(), 0.99);
  EXPECT_GT(m3_est.wall_seconds, 0.0);
  // Sampling identical seeds -> identical per-path fg counts across methods.
  for (std::size_t i = 0; i < 5; ++i) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      EXPECT_DOUBLE_EQ(m3_est.paths[i].counts[static_cast<std::size_t>(b)],
                       path_est.paths[i].counts[static_cast<std::size_t>(b)]);
    }
  }
}

TEST(Estimator, GroundTruthSummaryMatchesRawPercentiles) {
  std::vector<FlowResult> results;
  for (int i = 1; i <= 100; ++i) {
    FlowResult r;
    r.size = 500;
    r.slowdown = static_cast<double>(i);
    results.push_back(r);
  }
  const NetworkEstimate gt = SummarizeGroundTruth(results);
  EXPECT_NEAR(gt.CombinedP99(), 99.0, 1.1);
  EXPECT_NEAR(gt.bucket_pct[0][49], 50.0, 1.1);
  EXPECT_DOUBLE_EQ(gt.total_counts[0], 100.0);
}

}  // namespace
}  // namespace m3
