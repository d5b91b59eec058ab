// Training samples: flowSim features + ground-truth (packet simulator)
// slowdown distributions for path-level scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "core/feature_map.h"
#include "core/net_config.h"
#include "core/scenario.h"
#include "pktsim/config.h"
#include "util/status.h"

namespace m3 {

struct Sample {
  ml::Tensor fg_feat;  // [1, kFeatureDim]
  ml::Tensor bg_seq;   // [num_links, kFeatureDim]
  ml::Tensor spec;     // [1, kSpecDim]
  ml::Tensor target;    // [1, 400] log-slowdown (ground truth)
  ml::Tensor baseline;  // [1, 400] log-slowdown from flowSim (residual base)
  ml::Tensor mask;      // [1, 400]
  TargetDist gt;       // decoded ground truth (for evaluation)
  TargetDist flowsim;  // flowSim's own fg distribution (ablation baseline)
};

/// Runs flowSim + packet simulator on the scenario and assembles a sample.
Sample BuildSample(const PathScenario& scenario, const NetConfig& cfg);

struct DatasetOptions {
  int num_scenarios = 200;
  int num_fg = 800;          // fg flows per scenario (paper: 20000)
  // By default the per-scenario foreground count varies log-uniformly in
  // [num_fg/20, 2*num_fg] (sparse real paths, see SyntheticSpec::Sample);
  // set false for the paper's fixed-density setting.
  bool vary_num_fg = true;
  std::uint64_t seed = 7;
  unsigned num_threads = 0;  // scenario-level parallelism
};

/// Synthetic Table-2 training set: each scenario draws a fresh workload
/// spec and a fresh Table-4 network configuration. Throws on invalid
/// options or a generation failure; prefer MakeSyntheticDatasetOr at
/// service boundaries.
std::vector<Sample> MakeSyntheticDataset(const DatasetOptions& opts);

/// Status-returning variant: kInvalidArgument for bad options (checked
/// before any compute), kInternal if scenario generation fails.
StatusOr<std::vector<Sample>> MakeSyntheticDatasetOr(const DatasetOptions& opts);

}  // namespace m3
