// Network-wide aggregation (§3.5): per-size-bucket uniform pooling across
// the flow-count-weighted path sample, then a count-weighted mixture of the
// bucket distributions into a single network-wide slowdown CDF.
#pragma once

#include <array>
#include <vector>

#include "core/feature_map.h"
#include "workload/flow.h"

namespace m3 {

/// One sampled path's contribution: predicted slowdown percentiles and the
/// number of foreground flows per output bucket.
struct PathEstimate {
  std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> pct{};
  std::array<double, kNumOutputBuckets> counts{};
};

/// Network-wide per-bucket percentile vectors. Each path contributes its
/// 100 percentile values weighted by its per-bucket flow count (the path
/// sample itself is already flow-weighted, so pooling is uniform across
/// sample entries, weighted only within by bucket occupancy). The buckets
/// are independent and run on up to `num_threads` pool threads
/// (M3Options::num_threads semantics, 0 = the full pool); every width
/// gives the same bits.
std::array<std::vector<double>, kNumOutputBuckets> AggregateBuckets(
    const std::vector<PathEstimate>& paths, unsigned num_threads = 1);

/// Count-weighted mixture of the bucket distributions: a single 100-point
/// percentile vector of the network-wide slowdown distribution.
std::vector<double> CombineBuckets(
    const std::array<std::vector<double>, kNumOutputBuckets>& bucket_pct,
    const std::array<double, kNumOutputBuckets>& total_counts);

/// True when `pe` holds a foreground flow in some bucket. A dropped or
/// skipped sample slot is all-zero and holds none.
bool HasWeight(const PathEstimate& pe);

/// Aggregation guard: clamps non-finite or non-positive slowdown values in
/// the populated buckets of `paths` to the 1.0 floor so a stray NaN can
/// never poison combined_pct. Finite values in (0, 1) pass through: flowSim
/// emits slowdowns a few ulps below 1.0 (fct/ideal rounding), and clamping
/// those would break bitwise reproducibility of fault-free runs. Returns
/// the number of values clamped.
long long ClampPathEstimates(std::vector<PathEstimate>& paths);

/// The network-wide answer over one path sample.
struct PathAggregate {
  std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;  // 100 each
  std::array<double, kNumOutputBuckets> total_counts{};
  std::vector<double> combined_pct;  // 100 points
  long long clamped_values = 0;      // ClampPathEstimates' count
};

/// The aggregation tail of every answer, single-host or merged from shards:
/// ClampPathEstimates on `paths` (in place), AggregateBuckets at
/// `num_threads`, the summed per-bucket counts, then CombineBuckets.
PathAggregate AggregatePaths(std::vector<PathEstimate>& paths, unsigned num_threads = 1);

/// Weighted percentile over (value, weight) pairs; p in [0, 100].
double WeightedPercentile(std::vector<std::pair<double, double>> weighted, double p);

// ----- ground-truth helpers (for comparisons) -----

/// Buckets raw per-flow results into the 4 output buckets.
std::array<std::vector<double>, kNumOutputBuckets> BucketSlowdowns(
    const std::vector<FlowResult>& results);

/// Per-bucket p-th percentile (0 for empty buckets).
std::array<double, kNumOutputBuckets> BucketPercentile(
    const std::array<std::vector<double>, kNumOutputBuckets>& buckets, double p);

}  // namespace m3
