#include "bench/eval.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench/common.h"
#include "core/trainer.h"
#include "parsimon/parsimon.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "pktsim/simulator.h"
#include "util/stats.h"

namespace m3::bench {

namespace {

std::optional<double> P99Of(const TargetDist& d, std::size_t b) {
  return d.has[b] ? std::optional(d.pct[b][98]) : std::nullopt;
}

NetworkEstimate TimedSummary(const std::vector<FlowResult>& results, double seconds) {
  NetworkEstimate est = SummarizeGroundTruth(results);
  est.wall_seconds = seconds;
  return est;
}

}  // namespace

std::vector<PathRow> EvalSyntheticPaths(const M3Model& model, std::span<const Sample> samples,
                                        bool use_context, bool use_baseline) {
  std::vector<PathRow> rows;
  for (const Sample& s : samples) {
    const auto pred = model.Predict(s.fg_feat, s.bg_seq, s.spec, use_context,
                                    use_baseline ? &s.baseline : nullptr);
    for (std::size_t b = 0; b < kNumOutputBuckets; ++b) {
      const double truth = s.gt.pct[b][98];
      if (!s.gt.has[b] || !(truth > 0)) continue;
      rows.push_back({static_cast<int>(b), s.bg_seq.rows(), truth, pred[b][98],
                      P99Of(s.flowsim, b), {}, {}});
    }
  }
  return rows;
}

StatusOr<NetworkRow> EvalNetwork(const Topology& topo, const std::vector<Flow>& flows,
                                 const NetConfig& cfg, const M3Model& model,
                                 const M3Options& opts, bool with_parsimon) {
  NetworkRow row;
  row.m3 = RunM3(topo, flows, cfg, model, opts);
  if (!row.m3.status.ok()) return row.m3.status.Annotate("m3 estimate");

  WallTimer t_truth;
  const auto truth = RunPacketSim(topo, flows, cfg);
  row.truth = TimedSummary(truth, t_truth.Seconds());

  if (with_parsimon) {
    WallTimer t_pars;
    ParsimonOptions popts;
    popts.cfg = cfg;
    const auto pars = RunParsimon(topo, flows, popts);
    row.parsimon = TimedSummary(pars, t_pars.Seconds());
  }
  return row;
}

std::vector<PathRow> EvalSampledPaths(const Topology& topo, const std::vector<Flow>& flows,
                                      const NetConfig& cfg, const M3Model& model,
                                      int num_paths, std::uint64_t sample_seed) {
  const auto truth = RunPacketSim(topo, flows, cfg);
  ParsimonOptions popts;
  popts.cfg = cfg;
  const auto pars = RunParsimon(topo, flows, popts);

  PathDecomposition decomp(topo, flows);
  Rng rng(sample_seed);
  std::vector<PathRow> rows;
  for (std::size_t idx : SamplePaths(decomp, num_paths, rng)) {
    const PathScenario sc = BuildPathScenario(topo, flows, decomp, idx);
    if (sc.num_fg() < 5) continue;

    // Full-network truth and Parsimon over this path's foreground flows.
    std::array<std::vector<double>, kNumOutputBuckets> true_b, pars_b;
    for (std::size_t i = 0; i < sc.flows.size(); ++i) {
      if (!sc.is_fg[i]) continue;
      const auto oid = static_cast<std::size_t>(sc.orig_id[i]);
      const auto b = static_cast<std::size_t>(OutputBucketOf(sc.flows[i].size));
      true_b[b].push_back(truth[oid].slowdown);
      pars_b[b].push_back(pars[oid].slowdown);
    }

    const TargetDist path_dist = BuildTarget(ForegroundSlowdowns(sc, RunPathPktSim(sc, cfg)));
    const ScenarioFeatures feats = ExtractFeatures(sc, RunPathFlowSim(sc));
    const ml::Tensor spec = EncodeSpec(cfg, ComputePathSpec(sc, cfg));
    const ml::Tensor baseline = TargetToTensor(feats.flowsim_fg);
    const auto pred = model.Predict(feats.fg_feat, feats.bg_seq, spec, true, &baseline);

    for (std::size_t b = 0; b < kNumOutputBuckets; ++b) {
      if (true_b[b].size() < 3) continue;
      const double t99 = Percentile(true_b[b], 99);
      if (!(t99 > 0)) continue;
      rows.push_back({static_cast<int>(b), sc.num_links, t99, pred[b][98],
                      P99Of(feats.flowsim_fg, b), Percentile(pars_b[b], 99),
                      P99Of(path_dist, b)});
    }
  }
  return rows;
}

void LoadOrTrainQuick(M3Model& model, const std::string& path, const char* what,
                      std::uint64_t seed, bool use_context) {
  constexpr char kRecipe[] = "quick: 150 scenarios, num_fg 400, 30 epochs";
  if (std::filesystem::exists(path)) {
    model.Load(path);
    std::printf("# %s: loaded %s (%s)\n", what, path.c_str(), kRecipe);
    return;
  }
  std::printf("# %s: quick-training (%s), cached at %s...\n", what, kRecipe, path.c_str());
  std::fflush(stdout);
  DatasetOptions dopts;
  dopts.num_scenarios = 150;
  dopts.num_fg = 400;
  dopts.seed = seed;
  TrainOptions topts;
  topts.epochs = 30;
  topts.use_context = use_context;
  TrainModel(model, MakeSyntheticDataset(dopts), topts);
  model.Save(path);
}

const M3Model& DefaultModel() {
  static M3Model model;
  static bool ready = false;
  if (!ready) {
    // A bad M3_* size exits here, not after a quick-train.
    DefaultFlows();
    DefaultPaths();
    const char* env = std::getenv("M3_MODEL");
    const std::string path = env ? env : "models/m3_default.ckpt";
    if (std::filesystem::exists(path)) {
      model.Load(path);
      std::printf("# model: loaded %s\n", path.c_str());
    } else {
      LoadOrTrainQuick(model, "models/m3_quick.ckpt", "model");
    }
    ready = true;
  }
  return model;
}

}  // namespace m3::bench
