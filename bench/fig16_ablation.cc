// Figure 16: ablation of m3's components on synthetic Table-2 paths:
// flowSim alone vs "m3 w/o context" (background features zeroed) vs full
// m3, by path length and flow-size bucket.
//
// Paper claim: flowSim underestimates badly (errors to -80%, worst for
// small flows / long paths); the ML model corrects it; context features
// improve accuracy by ~33% on average and reduce variance.
#include <map>

#include "bench/common.h"
#include "core/dataset.h"

using namespace m3;
using namespace m3::bench;

int main() {
  const int num_eval = std::max(20, 12 * Scale());
  std::printf("=== Fig 16: component ablation on %d synthetic paths ===\n", num_eval);
  const M3Model& model = DefaultModel();

  // A no-context model trained by the same quick recipe, cached separately.
  M3Model no_ctx_model;
  LoadOrTrainQuick(no_ctx_model, "models/m3_noctx.ckpt", "no-context model", 77,
                   /*use_context=*/false);

  DatasetOptions eopts;
  eopts.num_scenarios = num_eval;
  eopts.num_fg = 800;
  // The paper's Fig 16 evaluates dense paths (20000 fg flows each); sparse
  // paths make per-bucket p99 targets statistically meaningless.
  eopts.vary_num_fg = false;
  eopts.seed = 4242;  // held out from both training seeds
  const auto eval = MakeSyntheticDataset(eopts);

  // Both models score the same (sample, bucket) rows, in the same order.
  const auto full = EvalSyntheticPaths(model, eval, true, true);
  const auto noctx = EvalSyntheticPaths(no_ctx_model, eval, false, true);
  // Per method (flowSim, m3 without context, m3): overall and by path length.
  std::array<std::vector<double>, 3> all;
  std::map<int, std::array<std::vector<double>, 3>> by_len;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const PathRow& r = full[i];
    const double errs[3] = {r.flowsim ? AbsErrPct(*r.flowsim, r.truth) : 100.0,
                            AbsErrPct(noctx[i].m3, r.truth), AbsErrPct(r.m3, r.truth)};
    for (int m = 0; m < 3; ++m) {
      all[m].push_back(errs[m]);
      by_len[r.hops][m].push_back(errs[m]);
    }
  }
  const auto& [fs_err, noctx_err, m3_err] = all;

  std::printf("\n|p99 err| overall: flowSim mean=%.1f%% median=%.1f%%  |  m3-no-context "
              "mean=%.1f%% median=%.1f%%  |  m3 mean=%.1f%% median=%.1f%%\n",
              Mean(fs_err), Percentile(fs_err, 50), Mean(noctx_err),
              Percentile(noctx_err, 50), Mean(m3_err), Percentile(m3_err, 50));
  std::printf("stddev:            flowSim %.1f%%        m3-no-context %.1f%%       m3 %.1f%%\n",
              StdDev(fs_err), StdDev(noctx_err), StdDev(m3_err));
  std::printf("by path length (median):\n");
  for (auto& [len, errs] : by_len) {
    std::printf("  %d hops: flowSim %.1f%%  no-context %.1f%%  m3 %.1f%% (n=%zu)\n", len,
                Percentile(errs[0], 50), Percentile(errs[1], 50), Percentile(errs[2], 50),
                errs[0].size());
  }
  std::printf("paper: ML correction removes flowSim's bias; context features improve\n"
              "accuracy by ~33%% on average and cut variance\n");
  return 0;
}
