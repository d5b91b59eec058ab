// flowSim feature maps (§3.4, Eq. 3): per-size-bucket percentile vectors of
// FCT slowdown. Inputs use 10 size buckets x 100 percentiles; the model's
// output uses 4 size buckets x 100 percentiles.
#pragma once

#include <array>
#include <vector>

#include "ml/tensor.h"
#include "pathdecomp/path_topology.h"
#include "util/units.h"

namespace m3 {

constexpr int kNumSizeBuckets = 10;
constexpr int kNumPercentiles = 100;
constexpr int kNumOutputBuckets = 4;

/// Flattened feature width: 10 buckets x 100 percentiles + 10 log-counts.
constexpr int kFeatureDim = kNumSizeBuckets * kNumPercentiles + kNumSizeBuckets;

/// Size buckets by upper edge (inclusive): 250B, 500B, 1KB, 2KB, 5KB,
/// 10KB, 20KB, 30KB, 50KB, then open, after the paper's "single packet
/// under 250B" up to "exceeding 50KB". Output buckets: (0,1KB], (1KB,10KB],
/// (10KB,50KB], (50KB,inf).
int SizeBucketOf(Bytes size);
int OutputBucketOf(Bytes size);

struct FeatureMap {
  std::array<double, kNumSizeBuckets> counts{};
  // pct[b][p] = (p+1)-percentile of slowdown in bucket b (0 if empty).
  std::array<std::array<double, kNumPercentiles>, kNumSizeBuckets> pct{};
};

FeatureMap BuildFeatureMap(const std::vector<SizedSlowdown>& flows);

/// Flattens to a [1, kFeatureDim] tensor: log(slowdown) percentiles (0 for
/// empty buckets) followed by log1p(count) per bucket.
ml::Tensor FlattenFeature(const FeatureMap& map);

/// Ground-truth / model target: 4 output buckets x 100 percentiles of
/// slowdown, with a validity flag per bucket.
struct TargetDist {
  std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> pct{};
  std::array<bool, kNumOutputBuckets> has{};
  std::array<double, kNumOutputBuckets> counts{};
};

TargetDist BuildTarget(const std::vector<SizedSlowdown>& flows);

/// Target/mask tensors in log-slowdown space, [1, 400] each.
ml::Tensor TargetToTensor(const TargetDist& t);
ml::Tensor TargetMask(const TargetDist& t);

/// Extracts the model inputs from a scenario given flowSim results: the
/// foreground feature map and one background feature map per chain link
/// (flows whose span covers that link), bit for bit what FlattenFeature,
/// BuildFeatureMap and BuildTarget give for those flows.
struct ScenarioFeatures {
  ml::Tensor fg_feat;
  ml::Tensor bg_seq;
  TargetDist flowsim_fg;  // flowSim's fg distribution
};
ScenarioFeatures ExtractFeatures(const PathScenario& scenario,
                                 const std::vector<FlowResult>& flowsim_results);

/// Inverse of the model output encoding: [1,400] log-slowdowns -> bucketed
/// slowdown percentiles (clamped to >= 1). When `num_nonfinite` is non-null
/// it receives the number of raw values that were NaN/inf before clamping
/// (the clamp would otherwise silently absorb them — callers use the count
/// to detect a poisoned forward pass).
std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> DecodeOutput(
    const ml::Tensor& out, int* num_nonfinite = nullptr);

}  // namespace m3
