#include "util/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace m3 {

namespace {

// The one percentile interpolation. Percentiles100OfSorted below does the
// same arithmetic with what its 100 calls would share hoisted.
inline double Interpolate(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double PercentileOfSorted(std::span<const double> sorted, double p) {
  return Interpolate(sorted, p);
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, p);
}

namespace {

// p / 100.0 for p = 1..100: the quotient Interpolate forms for an integer p.
constexpr std::array<double, 100> kPercentQuotients = [] {
  std::array<double, 100> q{};
  for (int p = 1; p <= 100; ++p) q[static_cast<std::size_t>(p - 1)] = p / 100.0;
  return q;
}();

}  // namespace

// Interpolate's arithmetic with what every percentile shares hoisted out of
// the loop. The rank lies in [0, n - 1], so the signed conversion truncates
// as the unsigned one does, without the unsigned one's range branches.
void Percentiles100OfSorted(std::span<const double> sorted, std::span<double, 100> out) {
  const std::size_t n = sorted.size();
  if (n <= 1) {
    std::fill(out.begin(), out.end(), n == 0 ? 0.0 : sorted[0]);
    return;
  }
  const std::int64_t last = static_cast<std::int64_t>(n - 1);
  const double last_rank = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < 100; ++i) {
    const double rank = kPercentQuotients[i] * last_rank;
    const std::int64_t lo = static_cast<std::int64_t>(rank);
    const std::int64_t hi = std::min(lo + 1, last);
    const double frac = rank - static_cast<double>(lo);
    out[i] = sorted[static_cast<std::size_t>(lo)] * (1.0 - frac) +
             sorted[static_cast<std::size_t>(hi)] * frac;
  }
}

std::vector<double> PercentileVector100(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  std::vector<double> out(100);
  Percentiles100OfSorted(values, std::span<double, 100>(out.data(), 100));
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = Mean(values);
  double s = 0.0;
  for (double v : values) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values.size() - 1));
}

double RelativeError(double estimate, double truth) {
  if (truth == 0.0) return 0.0;
  return (estimate - truth) / truth;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.mean = Mean(values);
  s.p50 = PercentileOfSorted(values, 50.0);
  s.p90 = PercentileOfSorted(values, 90.0);
  s.p99 = PercentileOfSorted(values, 99.0);
  s.max = values.back();
  return s;
}

}  // namespace m3
