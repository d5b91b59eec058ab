// Percentiles, summary statistics, and fixed-grid percentile vectors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace m3 {

/// Linearly-interpolated percentile of `values`, p in [0, 100].
/// Sorts a copy; for repeated queries use PercentileGrid or sort once and
/// call PercentileOfSorted.
double Percentile(std::vector<double> values, double p);

/// Percentile of an already-sorted ascending range.
double PercentileOfSorted(std::span<const double> sorted, double p);

/// The m3 feature/output convention: percentiles 1%,2%,...,100% of the
/// sorted ascending range `sorted`, written into `out` (zeros if `sorted`
/// is empty). Every feature, target and summary percentile vector comes
/// from here.
void Percentiles100OfSorted(std::span<const double> sorted, std::span<double, 100> out);

/// The same 100 percentiles of `values`, sorted here. Returns an empty
/// vector if `values` is empty.
std::vector<double> PercentileVector100(std::vector<double> values);

double Mean(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);

/// Relative error (estimate - truth) / truth; the paper's Eq. 4.
double RelativeError(double estimate, double truth);

/// Summary of a sample used in reports.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Summary Summarize(std::vector<double> values);

}  // namespace m3
