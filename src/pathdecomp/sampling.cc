#include "pathdecomp/sampling.h"

#include <algorithm>

namespace m3 {

std::size_t SampleCumulative(std::span<const std::size_t> cumulative, Rng& rng) {
  const double total = cumulative.empty() ? 0.0 : static_cast<double>(cumulative.back());
  const double target = rng.NextDouble() * total;
  // NextDouble() <= 1 - 2^-53 and the total is an integer below 2^53, so
  // the rounded product stays below the total and the search always lands.
  const auto it = std::upper_bound(
      cumulative.begin(), cumulative.end(), target,
      [](double t, std::size_t c) { return t < static_cast<double>(c); });
  return static_cast<std::size_t>(it - cumulative.begin());
}

std::vector<std::size_t> SamplePaths(const PathDecomposition& decomp, int k, Rng& rng) {
  const std::span<const std::size_t> cumulative = decomp.ForegroundCumulative();
  std::vector<std::size_t> sample;
  if (cumulative.empty()) return sample;
  sample.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) sample.push_back(SampleCumulative(cumulative, rng));
  return sample;
}

PathSampleStats ComputePathSampleStats(const PathDecomposition& decomp,
                                       const std::vector<std::size_t>& sample) {
  PathSampleStats stats;
  stats.hop_counts.reserve(sample.size());
  stats.fg_counts.reserve(sample.size());
  stats.bg_counts.reserve(sample.size());
  for (std::size_t idx : sample) {
    const PathInfo p = decomp.path(idx);
    stats.hop_counts.push_back(static_cast<int>(p.links.size()));
    stats.fg_counts.push_back(static_cast<int>(p.fg_flows.size()));
    stats.bg_counts.push_back(static_cast<int>(decomp.BackgroundFlows(idx).size()));
  }
  return stats;
}

}  // namespace m3
