// Weighted path sampling (§3.2): paths are sampled with replacement, with
// probability proportional to their foreground flow count, so the union of
// sampled foreground flows is a flow-weighted sample of the network.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "pathdecomp/decompose.h"
#include "util/rng.h"

namespace m3 {

/// Samples `k` path indices (with replacement) proportional to foreground
/// flow count, one SampleCumulative draw per index; none if there are no paths.
std::vector<std::size_t> SamplePaths(const PathDecomposition& decomp, int k, Rng& rng);

/// Draws one index with probability proportional to integer weights given
/// as inclusive prefix sums (total positive and below 2^53). Consumes one
/// Rng::NextDouble() and returns exactly the index Rng::WeightedIndex
/// returns for the same weights and stream: with integer weights its
/// running `target -= w` never rounds, so it stops at the first prefix sum
/// above the draw, which this finds by binary search.
std::size_t SampleCumulative(std::span<const std::size_t> cumulative, Rng& rng);

/// Summary statistics of a path sample, matching Fig. 2(b)/(d).
struct PathSampleStats {
  std::vector<int> hop_counts;  // per sampled path
  std::vector<int> fg_counts;
  std::vector<int> bg_counts;
};

PathSampleStats ComputePathSampleStats(const PathDecomposition& decomp,
                                       const std::vector<std::size_t>& sample);

}  // namespace m3
