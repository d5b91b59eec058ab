// The accuracy harness (bench/eval.h) reports exactly what the pipeline
// computes: its rows equal hand-written loops over Predict and direct
// RunPacketSim / RunM3 / RunParsimon calls, bit for bit, and a failed
// estimate comes back as a status, never as a scored row.
#include <gtest/gtest.h>

#include <vector>

#include "bench/common.h"
#include "bench/eval.h"
#include "core/dataset.h"
#include "parsimon/parsimon.h"
#include "pktsim/simulator.h"

namespace m3::bench {
namespace {

M3ModelConfig SmallModel() {
  M3ModelConfig cfg;
  cfg.d_model = 32;
  cfg.ff_dim = 64;
  cfg.mlp_hidden = 64;
  cfg.num_layers = 1;
  return cfg;
}

// The bucket percentiles and combined p99 that printers read.
void ExpectSameAnswer(const NetworkEstimate& got, const NetworkEstimate& want) {
  EXPECT_EQ(got.combined_pct, want.combined_pct);
  EXPECT_EQ(got.bucket_pct, want.bucket_pct);
  EXPECT_EQ(got.CombinedP99(), want.CombinedP99());
}

TEST(Eval, SyntheticRowsMatchAHandLoopOverPredict) {
  DatasetOptions dopts;
  dopts.num_scenarios = 4;
  dopts.num_fg = 120;
  dopts.seed = 31;
  const std::vector<Sample> samples = MakeSyntheticDataset(dopts);
  const M3Model model(SmallModel());

  for (const bool use_context : {true, false}) {
    for (const bool use_baseline : {true, false}) {
      std::vector<PathRow> want;
      for (const Sample& s : samples) {
        const auto pred = model.Predict(s.fg_feat, s.bg_seq, s.spec, use_context,
                                        use_baseline ? &s.baseline : nullptr);
        for (std::size_t b = 0; b < kNumOutputBuckets; ++b) {
          if (!s.gt.has[b] || s.gt.pct[b][98] <= 0) continue;
          PathRow r;
          r.bucket = static_cast<int>(b);
          r.hops = s.bg_seq.rows();
          r.truth = s.gt.pct[b][98];
          r.m3 = pred[b][98];
          if (s.flowsim.has[b]) r.flowsim = s.flowsim.pct[b][98];
          want.push_back(r);
        }
      }
      const std::vector<PathRow> got =
          EvalSyntheticPaths(model, samples, use_context, use_baseline);
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size()) << use_context << use_baseline;
      for (std::size_t k = 0; k < got.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "row " << k << " context " << use_context
                                        << " baseline " << use_baseline);
        EXPECT_EQ(got[k].bucket, want[k].bucket);
        EXPECT_EQ(got[k].hops, want[k].hops);
        EXPECT_EQ(got[k].truth, want[k].truth);
        EXPECT_EQ(got[k].m3, want[k].m3);
        EXPECT_EQ(got[k].flowsim, want[k].flowsim);
        EXPECT_FALSE(got[k].parsimon.has_value());
        EXPECT_FALSE(got[k].pktsim.has_value());
      }
    }
  }
}

TEST(Eval, NetworkRowMatchesDirectRuns) {
  const BuiltMix built = BuildMix(Table1Mixes()[1], 500, 5);
  const Topology& topo = built.ft->topo();
  const M3Model model(SmallModel());
  M3Options opts;
  opts.num_paths = 8;

  const StatusOr<NetworkRow> row = EvalNetwork(topo, built.wl.flows, built.cfg, model, opts, true);
  ASSERT_TRUE(row.ok()) << row.status().ToString();

  const auto truth = RunPacketSim(topo, built.wl.flows, built.cfg);
  ExpectSameAnswer(row->truth, SummarizeGroundTruth(truth));
  // The printers read the combined p99 as the p99 slowdown over all flows.
  std::vector<double> slowdowns;
  for (const FlowResult& r : truth) slowdowns.push_back(r.slowdown);
  EXPECT_EQ(row->truth.CombinedP99(), Percentile(slowdowns, 99));

  const NetworkEstimate m3 = RunM3(topo, built.wl.flows, built.cfg, model, opts);
  ASSERT_TRUE(m3.status.ok());
  ExpectSameAnswer(row->m3, m3);

  ParsimonOptions popts;
  popts.cfg = built.cfg;
  ASSERT_TRUE(row->parsimon.has_value());
  ExpectSameAnswer(*row->parsimon, SummarizeGroundTruth(RunParsimon(topo, built.wl.flows, popts)));

  const StatusOr<NetworkRow> without =
      EvalNetwork(topo, built.wl.flows, built.cfg, model, opts, false);
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without->parsimon.has_value());
}

TEST(Eval, FailedEstimateIsAStatusNotARow) {
  const BuiltMix built = BuildMix(Table1Mixes()[0], 200, 9);
  const M3Model model(SmallModel());
  M3Options opts;
  opts.num_paths = 0;
  const StatusOr<NetworkRow> row =
      EvalNetwork(built.ft->topo(), built.wl.flows, built.cfg, model, opts, true);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument) << row.status().ToString();
  EXPECT_NE(row.status().message().find("num_paths"), std::string::npos)
      << row.status().ToString();
}

}  // namespace
}  // namespace m3::bench
