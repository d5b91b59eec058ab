#include "core/aggregate.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"
#include "util/stats.h"

namespace m3 {

double WeightedPercentile(std::vector<std::pair<double, double>> weighted, double p) {
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  double total = 0.0;
  for (const auto& [v, w] : weighted) total += w;
  if (total <= 0.0) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * total;
  double cum = 0.0;
  for (const auto& [v, w] : weighted) {
    cum += w;
    if (cum >= target) return v;
  }
  return weighted.back().first;
}

namespace {

// Bucket b of AggregateBuckets: its 100 percentiles over every path's
// (value, count / 100) pairs.
std::vector<double> AggregateBucket(const std::vector<PathEstimate>& paths, std::size_t b) {
  std::vector<std::pair<double, double>> weighted;
  for (const PathEstimate& pe : paths) {
    const double w = pe.counts[b];
    if (w <= 0.0) continue;
    for (int p = 0; p < kNumPercentiles; ++p) {
      weighted.emplace_back(pe.pct[b][static_cast<std::size_t>(p)], w / kNumPercentiles);
    }
  }
  std::vector<double> pct;
  pct.reserve(kNumPercentiles);
  if (weighted.empty()) return pct;
  std::sort(weighted.begin(), weighted.end());
  double total = 0.0;
  for (const auto& [v, w] : weighted) total += w;
  // Single sweep for all 100 percentiles.
  double cum = 0.0;
  std::size_t idx = 0;
  for (int p = 1; p <= kNumPercentiles; ++p) {
    const double target = static_cast<double>(p) / 100.0 * total;
    while (idx < weighted.size() && cum + weighted[idx].second < target) {
      cum += weighted[idx].second;
      ++idx;
    }
    pct.push_back(weighted[std::min(idx, weighted.size() - 1)].first);
  }
  return pct;
}

}  // namespace

std::array<std::vector<double>, kNumOutputBuckets> AggregateBuckets(
    const std::vector<PathEstimate>& paths, unsigned num_threads) {
  std::array<std::vector<double>, kNumOutputBuckets> out;
  ParallelFor(
      kNumOutputBuckets, [&](std::size_t b) { out[b] = AggregateBucket(paths, b); },
      num_threads);
  return out;
}

std::vector<double> CombineBuckets(
    const std::array<std::vector<double>, kNumOutputBuckets>& bucket_pct,
    const std::array<double, kNumOutputBuckets>& total_counts) {
  std::vector<std::pair<double, double>> weighted;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const auto& pct = bucket_pct[static_cast<std::size_t>(b)];
    const double w = total_counts[static_cast<std::size_t>(b)];
    if (pct.empty() || w <= 0.0) continue;
    for (double v : pct) weighted.emplace_back(v, w / static_cast<double>(pct.size()));
  }
  // WeightedPercentile(weighted, p) for p = 1..100, with one sort: each of
  // its calls sorts the same pairs and scans the same running sum for the
  // first `cum >= target`, and the targets only grow with p, so one sweep
  // resumes where the previous percentile stopped.
  std::vector<double> out(kNumPercentiles, 0.0);
  if (weighted.empty()) return out;
  std::sort(weighted.begin(), weighted.end());
  double total = 0.0;
  for (const auto& [v, w] : weighted) total += w;
  if (total <= 0.0) return out;
  std::size_t i = 0;
  double cum = weighted[0].second;
  for (int p = 1; p <= kNumPercentiles; ++p) {
    const double target = std::clamp(static_cast<double>(p), 0.0, 100.0) / 100.0 * total;
    // !(cum >= target) rather than cum < target: a NaN sum must run to the
    // end, as it does in WeightedPercentile.
    while (i < weighted.size() && !(cum >= target)) {
      if (++i < weighted.size()) cum += weighted[i].second;
    }
    out[static_cast<std::size_t>(p - 1)] =
        i < weighted.size() ? weighted[i].first : weighted.back().first;
  }
  return out;
}

bool HasWeight(const PathEstimate& pe) {
  for (double c : pe.counts) {
    if (c > 0.0) return true;
  }
  return false;
}

long long ClampPathEstimates(std::vector<PathEstimate>& paths) {
  long long clamped = 0;
  for (PathEstimate& pe : paths) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      if (pe.counts[static_cast<std::size_t>(b)] <= 0.0) continue;
      for (int p = 0; p < kNumPercentiles; ++p) {
        double& v = pe.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
        // Only non-finite and physically impossible (<= 0) values are
        // corrupt; finite values in (0, 1) are flowSim rounding.
        if (!std::isfinite(v) || v <= 0.0) {
          v = 1.0;
          ++clamped;
        }
      }
    }
  }
  return clamped;
}

PathAggregate AggregatePaths(std::vector<PathEstimate>& paths, unsigned num_threads) {
  PathAggregate agg;
  agg.clamped_values = ClampPathEstimates(paths);
  agg.bucket_pct = AggregateBuckets(paths, num_threads);
  for (const PathEstimate& pe : paths) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      agg.total_counts[static_cast<std::size_t>(b)] += pe.counts[static_cast<std::size_t>(b)];
    }
  }
  agg.combined_pct = CombineBuckets(agg.bucket_pct, agg.total_counts);
  return agg;
}

std::array<std::vector<double>, kNumOutputBuckets> BucketSlowdowns(
    const std::vector<FlowResult>& results) {
  std::array<std::vector<double>, kNumOutputBuckets> out;
  for (const FlowResult& r : results) {
    out[static_cast<std::size_t>(OutputBucketOf(r.size))].push_back(r.slowdown);
  }
  return out;
}

std::array<double, kNumOutputBuckets> BucketPercentile(
    const std::array<std::vector<double>, kNumOutputBuckets>& buckets, double p) {
  std::array<double, kNumOutputBuckets> out{};
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    out[static_cast<std::size_t>(b)] = Percentile(buckets[static_cast<std::size_t>(b)], p);
  }
  return out;
}

}  // namespace m3
