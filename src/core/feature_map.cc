#include "core/feature_map.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/stats.h"

namespace m3 {
namespace {

// Upper bucket edges (inclusive), in bytes; the last bucket is open.
constexpr std::array<Bytes, kNumSizeBuckets - 1> kSizeEdges{250,   500,   1000,  2000, 5000,
                                                            10000, 20000, 30000, 50000};
constexpr std::array<Bytes, kNumOutputBuckets - 1> kOutputEdges{1000, 10000, 50000};

// Slowdowns grouped into numbered buckets, each sorted ascending, in one
// flat buffer that keeps its capacity from one Fill to the next.
class SortedBuckets {
 public:
  // Refills `num_buckets` buckets from each(add), which calls
  // add(bucket, slowdown) once per value. It runs twice (count, then
  // place) and must make the same calls both times; a bucket holds its
  // values in call order until the sort.
  template <typename Each>
  void Fill(std::size_t num_buckets, const Each& each) {
    // Counting leaves bucket b's count in begin_[b + 2]; placing moves
    // begin_[b + 1] from bucket b's start to its end, bucket b + 1's start.
    begin_.assign(num_buckets + 2, 0);
    each([this](std::size_t b, double) { ++begin_[b + 2]; });
    for (std::size_t i = 3; i < begin_.size(); ++i) begin_[i] += begin_[i - 1];
    values_.resize(begin_.back());
    each([this](std::size_t b, double v) { values_[begin_[b + 1]++] = v; });
    for (std::size_t b = 0; b < num_buckets; ++b) {
      std::sort(values_.begin() + static_cast<std::ptrdiff_t>(begin_[b]),
                values_.begin() + static_cast<std::ptrdiff_t>(begin_[b + 1]));
    }
  }
  std::span<const double> Bucket(std::size_t b) const {
    return {values_.data() + begin_[b], begin_[b + 1] - begin_[b]};
  }

 private:
  std::vector<std::size_t> begin_;
  std::vector<double> values_;
};

// Writes log(s) of each percentile, 0 where s <= 0, into `out`. Every
// percentile takes its own log: reusing the previous one's for a repeated
// value costs more in branches than the ~10% of calls it saves.
void WriteLogRow(std::span<const double, kNumPercentiles> pct, float* out) {
  for (int p = 0; p < kNumPercentiles; ++p) {
    const double s = pct[static_cast<std::size_t>(p)];
    out[p] = s > 0.0 ? static_cast<float>(std::log(s)) : 0.0f;
  }
}

// The feature row of buckets [first, first + kNumSizeBuckets) into `row`
// (zeroed): FlattenFeature's layout.
void WriteFeatureRow(const SortedBuckets& buckets, std::size_t first, float* row) {
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const std::span<const double> sorted = buckets.Bucket(first + static_cast<std::size_t>(b));
    if (!sorted.empty()) {
      std::array<double, kNumPercentiles> pct;
      Percentiles100OfSorted(sorted, pct);
      WriteLogRow(pct, row + b * kNumPercentiles);
    }
    row[kNumSizeBuckets * kNumPercentiles + b] =
        static_cast<float>(std::log1p(static_cast<double>(sorted.size())) / 10.0);
  }
}

// The target of buckets [first, first + kNumOutputBuckets).
TargetDist TargetFromBuckets(const SortedBuckets& buckets, std::size_t first) {
  TargetDist t;
  for (std::size_t b = 0; b < kNumOutputBuckets; ++b) {
    const std::span<const double> sorted = buckets.Bucket(first + b);
    t.counts[b] = static_cast<double>(sorted.size());
    t.has[b] = !sorted.empty();
    Percentiles100OfSorted(sorted, t.pct[b]);
  }
  return t;
}

}  // namespace

// Edges ascend, so a size's bucket is the number of edges below it.
int SizeBucketOf(Bytes size) {
  int b = 0;
  for (Bytes edge : kSizeEdges) b += size > edge;
  return b;
}

int OutputBucketOf(Bytes size) {
  int b = 0;
  for (Bytes edge : kOutputEdges) b += size > edge;
  return b;
}

FeatureMap BuildFeatureMap(const std::vector<SizedSlowdown>& flows) {
  SortedBuckets buckets;
  buckets.Fill(kNumSizeBuckets, [&](auto&& add) {
    for (const SizedSlowdown& f : flows) add(SizeBucketOf(f.size), f.slowdown);
  });
  FeatureMap map;
  for (std::size_t b = 0; b < kNumSizeBuckets; ++b) {
    map.counts[b] = static_cast<double>(buckets.Bucket(b).size());
    Percentiles100OfSorted(buckets.Bucket(b), map.pct[b]);
  }
  return map;
}

ml::Tensor FlattenFeature(const FeatureMap& map) {
  ml::Tensor out(1, kFeatureDim);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    WriteLogRow(map.pct[bi], out.data() + b * kNumPercentiles);
    out.at(0, kNumSizeBuckets * kNumPercentiles + b) =
        static_cast<float>(std::log1p(map.counts[bi]) / 10.0);
  }
  return out;
}

TargetDist BuildTarget(const std::vector<SizedSlowdown>& flows) {
  SortedBuckets buckets;
  buckets.Fill(kNumOutputBuckets, [&](auto&& add) {
    for (const SizedSlowdown& f : flows) add(OutputBucketOf(f.size), f.slowdown);
  });
  return TargetFromBuckets(buckets, 0);
}

ml::Tensor TargetToTensor(const TargetDist& t) {
  ml::Tensor out(1, kNumOutputBuckets * kNumPercentiles);
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    WriteLogRow(t.pct[static_cast<std::size_t>(b)], out.data() + b * kNumPercentiles);
  }
  return out;
}

ml::Tensor TargetMask(const TargetDist& t) {
  ml::Tensor out(1, kNumOutputBuckets * kNumPercentiles);
  int idx = 0;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const float m = t.has[static_cast<std::size_t>(b)] ? 1.0f : 0.0f;
    for (int p = 0; p < kNumPercentiles; ++p) out.at(0, idx++) = m;
  }
  return out;
}

std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> DecodeOutput(
    const ml::Tensor& out, int* num_nonfinite) {
  std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> dist{};
  int bad = 0;
  int idx = 0;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      const double raw = std::exp(static_cast<double>(out.at(0, idx++)));
      // NaN would silently survive std::max (max(1.0, NaN) == 1.0); make the
      // clamp explicit and count what it absorbed.
      if (!std::isfinite(raw)) ++bad;
      dist[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)] =
          std::isfinite(raw) ? std::max(1.0, raw) : 1.0;
    }
    // Percentile vectors are monotone by construction; enforce it on the
    // decoded prediction as well.
    for (int p = 1; p < kNumPercentiles; ++p) {
      auto& row = dist[static_cast<std::size_t>(b)];
      row[static_cast<std::size_t>(p)] =
          std::max(row[static_cast<std::size_t>(p)], row[static_cast<std::size_t>(p - 1)]);
    }
  }
  if (num_nonfinite != nullptr) *num_nonfinite = bad;
  return dist;
}

ScenarioFeatures ExtractFeatures(const PathScenario& scenario,
                                 const std::vector<FlowResult>& flowsim_results) {
  // Bucket rows: hop h's background map is buckets [h * 10, h * 10 + 10),
  // the foreground map the next 10, then the 4 output buckets of the
  // foreground target. Every (row, bucket) is sorted once, in the same
  // flow order as a per-hop BuildFeatureMap would see it.
  const auto n = static_cast<std::size_t>(scenario.num_links);
  const std::size_t fg_first = n * kNumSizeBuckets;
  const std::size_t target_first = fg_first + kNumSizeBuckets;
  thread_local SortedBuckets buckets;
  buckets.Fill(target_first + kNumOutputBuckets, [&](auto&& add) {
    for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
      const FlowResult& r = flowsim_results[i];
      const auto b = static_cast<std::size_t>(SizeBucketOf(r.size));
      if (scenario.is_fg[i]) {
        add(fg_first + b, r.slowdown);
        add(target_first + static_cast<std::size_t>(OutputBucketOf(r.size)), r.slowdown);
      } else {
        for (int h = scenario.entry_hop[i]; h < scenario.exit_hop[i]; ++h) {
          add(static_cast<std::size_t>(h) * kNumSizeBuckets + b, r.slowdown);
        }
      }
    }
  });

  ScenarioFeatures out;
  out.fg_feat = ml::Tensor(1, kFeatureDim);
  out.bg_seq = ml::Tensor(scenario.num_links, kFeatureDim);
  WriteFeatureRow(buckets, fg_first, out.fg_feat.data());
  for (std::size_t h = 0; h < n; ++h) {
    WriteFeatureRow(buckets, h * kNumSizeBuckets, out.bg_seq.data() + h * kFeatureDim);
  }
  out.flowsim_fg = TargetFromBuckets(buckets, target_first);
  return out;
}

}  // namespace m3
