#include "core/dataset.h"

#include <stdexcept>

#include "core/validate.h"
#include "util/parallel.h"

namespace m3 {

Sample BuildSample(const PathScenario& scenario, const NetConfig& cfg) {
  const std::vector<FlowResult> fluid = RunPathFlowSim(scenario);
  const std::vector<FlowResult> truth = RunPathPktSim(scenario, cfg);

  ScenarioFeatures feats = ExtractFeatures(scenario, fluid);
  const TargetDist gt = BuildTarget(ForegroundSlowdowns(scenario, truth));

  Sample s;
  s.fg_feat = std::move(feats.fg_feat);
  s.bg_seq = std::move(feats.bg_seq);
  s.spec = EncodeSpec(cfg, ComputePathSpec(scenario, cfg));
  s.target = TargetToTensor(gt);
  s.baseline = TargetToTensor(feats.flowsim_fg);
  s.mask = TargetMask(gt);
  s.gt = gt;
  s.flowsim = feats.flowsim_fg;
  return s;
}

std::vector<Sample> MakeSyntheticDataset(const DatasetOptions& opts) {
  StatusOr<std::vector<Sample>> samples = MakeSyntheticDatasetOr(opts);
  if (!samples.ok()) throw std::runtime_error(samples.status().ToString());
  return std::move(samples).value();
}

StatusOr<std::vector<Sample>> MakeSyntheticDatasetOr(const DatasetOptions& opts) {
  M3_RETURN_IF_ERROR(ValidateDatasetOptions(opts));
  Rng rng(opts.seed);
  // Pre-draw all specs/configs so generation order is independent of
  // thread scheduling.
  std::vector<SyntheticSpec> specs;
  std::vector<NetConfig> cfgs;
  specs.reserve(static_cast<std::size_t>(opts.num_scenarios));
  cfgs.reserve(static_cast<std::size_t>(opts.num_scenarios));
  for (int i = 0; i < opts.num_scenarios; ++i) {
    Rng wl_rng = rng.Fork(static_cast<std::uint64_t>(2 * i));
    Rng cfg_rng = rng.Fork(static_cast<std::uint64_t>(2 * i + 1));
    SyntheticSpec spec = SyntheticSpec::Sample(wl_rng, opts.num_fg);
    if (!opts.vary_num_fg) spec.num_fg = opts.num_fg;
    specs.push_back(spec);
    cfgs.push_back(NetConfig::Sample(cfg_rng));
  }

  std::vector<Sample> samples(static_cast<std::size_t>(opts.num_scenarios));
  try {
    ParallelFor(
        static_cast<std::size_t>(opts.num_scenarios),
        [&](std::size_t i) {
          const PathScenario scenario = BuildSyntheticScenario(specs[i]);
          samples[i] = BuildSample(scenario, cfgs[i]);
        },
        opts.num_threads);
  } catch (const std::exception& e) {
    return Status::Internal(e.what()).Annotate("dataset generation");
  }
  return samples;
}

}  // namespace m3
