// Edge cases of the percentile writer (util/stats.cc) and of the one-pass
// feature rows ExtractFeatures writes (core/feature_map.cc).
// Every expected value is computed here: the percentile interpolation is
// written out below and logs come from std::log, so no expectation runs the
// code under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <vector>

#include "core/feature_map.h"
#include "util/stats.h"

namespace m3 {
namespace {

// The m3 convention: percentile p in 1..100 of ascending `sorted`, linearly
// interpolated between the two ranks around p/100 * (n - 1).
double RefPercentile(const std::vector<double>& sorted, int p) {
  if (sorted.size() == 1) return sorted[0];
  const double rank = static_cast<double>(p) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

float RefLog(double v) { return v > 0.0 ? static_cast<float>(std::log(v)) : 0.0f; }

// n slowdowns in a scrambled order with many ties (only 7 distinct values).
std::vector<double> TiedValues(std::size_t n, double base) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(base + static_cast<double>((i * 5) % 7) * 0.25);
  return v;
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(PercentileWriter, MatchesTheInterpolationOnTiedInputs) {
  for (std::size_t n : {1u, 2u, 100u, 101u}) {
    const std::vector<double> values = TiedValues(n, 1.0);
    const std::vector<double> sorted = Sorted(values);
    std::array<double, 100> out{};
    Percentiles100OfSorted(sorted, out);
    const std::vector<double> vec = PercentileVector100(values);
    ASSERT_EQ(vec.size(), 100u);
    for (int p = 1; p <= 100; ++p) {
      const auto i = static_cast<std::size_t>(p - 1);
      EXPECT_EQ(out[i], RefPercentile(sorted, p)) << "n " << n << " p " << p;
      EXPECT_EQ(vec[i], out[i]) << "n " << n << " p " << p;
      EXPECT_EQ(PercentileOfSorted(sorted, p), out[i]) << "n " << n << " p " << p;
    }
  }
}

// 101 values put percentile p on rank p/100 * 100. Where that product is
// exactly p (frac == 0; 92 of the 100 p, as p/100 is inexact in binary) the
// percentile is the sorted value itself.
TEST(PercentileWriter, HundredOneValuesLandOnExactRanks) {
  const std::vector<double> sorted = Sorted(TiedValues(101, 2.0));
  std::array<double, 100> out{};
  Percentiles100OfSorted(sorted, out);
  int exact = 0;
  for (std::size_t p = 1; p <= 100; ++p) {
    if (static_cast<double>(p) / 100.0 * 100.0 != static_cast<double>(p)) continue;
    ++exact;
    EXPECT_EQ(out[p - 1], sorted[p]) << "p " << p;
  }
  EXPECT_EQ(exact, 92);
}

TEST(PercentileWriter, OneAndTwoValues) {
  std::array<double, 100> out{};
  Percentiles100OfSorted(std::vector<double>{3.5}, out);
  for (double v : out) EXPECT_EQ(v, 3.5);
  Percentiles100OfSorted(std::vector<double>{1.0, 2.0}, out);
  EXPECT_EQ(out[49], 1.5);
  EXPECT_EQ(out[99], 2.0);
  EXPECT_TRUE(PercentileVector100({}).empty());
}

// Random sorted inputs of every size from 0 to 600, and 4096: each of the
// 100 percentiles is the interpolation written out above, bit for bit, and
// an empty input writes zeros.
TEST(PercentileWriter, MatchesTheInterpolationOnEverySize) {
  std::mt19937_64 rng(20240607);
  std::uniform_real_distribution<double> slowdown(0.5, 500.0);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 600; ++n) sizes.push_back(n);
  sizes.push_back(4096);
  for (std::size_t n : sizes) {
    std::vector<double> sorted(n);
    for (double& v : sorted) v = slowdown(rng);
    std::sort(sorted.begin(), sorted.end());
    std::array<double, 100> out;
    out.fill(-1.0);
    Percentiles100OfSorted(sorted, out);
    for (int p = 1; p <= 100; ++p) {
      const double want = n == 0 ? 0.0 : RefPercentile(sorted, p);
      if (out[static_cast<std::size_t>(p - 1)] != want) {
        ADD_FAILURE() << "n " << n << " p " << p << ": " << out[static_cast<std::size_t>(p - 1)]
                      << " != " << want;
        break;
      }
    }
  }
}

// ------------------------------------------------------ feature rows --

struct TestFlow {
  Bytes size;
  double slowdown;
  bool fg;
  int entry, exit;
};

// A 5-hop scenario (flowSim results given, no lot needed by
// ExtractFeatures) exercising every edge of the row writer:
//   hop 0, bucket 0: 101 tied values; hop 1, bucket 2: 100 tied values;
//   hop 3, bucket 3: 2 values; hop 2, bucket 9: a single flow;
//   one flow spans hops 0..3, every hop but the last; hop 4 has no
//   background flow at all, so its row is all zeros.
std::vector<TestFlow> EdgeCaseFlows() {
  std::vector<TestFlow> flows;
  const std::vector<double> fg = {1.25, 3.0, 1.0};
  const Bytes fg_sizes[] = {100, 700, 60000};
  for (std::size_t i = 0; i < fg.size(); ++i) flows.push_back({fg_sizes[i], fg[i], true, 0, 5});
  flows.push_back({300, 1.75, false, 0, 4});  // spans every hop but one
  for (double s : TiedValues(101, 1.0)) flows.push_back({100, s, false, 0, 1});
  flows.push_back({60000, 4.5, false, 2, 3});  // alone in its bucket
  for (double s : TiedValues(100, 1.5)) flows.push_back({700, s, false, 1, 2});
  flows.push_back({1500, 2.0, false, 3, 4});
  flows.push_back({1500, 1.0, false, 3, 4});
  flows.push_back({700, 6.0, true, 0, 5});
  return flows;
}

// The feature row of `pairs`: per size bucket, log of each percentile of its
// sorted slowdowns (0 for an empty bucket), then log1p(count) / 10.
std::vector<float> RefRow(const std::vector<SizedSlowdown>& pairs) {
  std::vector<float> row(kFeatureDim, 0.0f);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    std::vector<double> v;
    for (const SizedSlowdown& s : pairs) {
      if (SizeBucketOf(s.size) == b) v.push_back(s.slowdown);
    }
    std::sort(v.begin(), v.end());
    for (int p = 1; p <= 100 && !v.empty(); ++p) {
      row[static_cast<std::size_t>(b * kNumPercentiles + p - 1)] = RefLog(RefPercentile(v, p));
    }
    row[static_cast<std::size_t>(kNumSizeBuckets * kNumPercentiles + b)] =
        static_cast<float>(std::log1p(static_cast<double>(v.size())) / 10.0);
  }
  return row;
}

::testing::AssertionResult SameRow(const float* got, const std::vector<float>& want) {
  for (std::size_t j = 0; j < want.size(); ++j) {
    if (got[j] != want[j]) {
      return ::testing::AssertionFailure()
             << "column " << j << ": " << got[j] << " vs " << want[j];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FeatureWriter, ExtractFeaturesMatchesThePerHopReference) {
  const std::vector<TestFlow> flows = EdgeCaseFlows();
  constexpr int kHops = 5;
  PathScenario sc;
  sc.num_links = kHops;
  std::vector<FlowResult> results;
  for (const TestFlow& f : flows) {
    sc.flows.emplace_back();
    sc.is_fg.push_back(f.fg ? 1 : 0);
    sc.orig_id.push_back(-1);
    sc.entry_hop.push_back(f.entry);
    sc.exit_hop.push_back(f.exit);
    FlowResult r;
    r.size = f.size;
    r.slowdown = f.slowdown;
    results.push_back(r);
  }
  const ScenarioFeatures feats = ExtractFeatures(sc, results);
  ASSERT_EQ(feats.bg_seq.rows(), kHops);
  ASSERT_EQ(feats.bg_seq.cols(), kFeatureDim);
  ASSERT_EQ(feats.fg_feat.cols(), kFeatureDim);

  std::vector<SizedSlowdown> fg;
  for (const TestFlow& f : flows) {
    if (f.fg) fg.push_back({f.size, f.slowdown});
  }
  EXPECT_TRUE(SameRow(feats.fg_feat.data(), RefRow(fg))) << "fg row";
  for (int h = 0; h < kHops; ++h) {
    std::vector<SizedSlowdown> bg;
    for (const TestFlow& f : flows) {
      if (!f.fg && f.entry <= h && h < f.exit) bg.push_back({f.size, f.slowdown});
    }
    const std::vector<float> want = RefRow(bg);
    EXPECT_TRUE(SameRow(feats.bg_seq.data() + h * kFeatureDim, want)) << "hop " << h;
    // The value API writes the same row.
    EXPECT_TRUE(SameRow(FlattenFeature(BuildFeatureMap(bg)).data(), want))
        << "hop " << h << " via BuildFeatureMap";
  }
  const float* last = feats.bg_seq.data() + (kHops - 1) * kFeatureDim;
  EXPECT_TRUE(std::all_of(last, last + kFeatureDim, [](float x) { return x == 0.0f; }));

  // The foreground target over the 4 output buckets.
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    std::vector<double> v;
    for (const SizedSlowdown& s : fg) {
      if (OutputBucketOf(s.size) == b) v.push_back(s.slowdown);
    }
    std::sort(v.begin(), v.end());
    EXPECT_EQ(feats.flowsim_fg.counts[bi], static_cast<double>(v.size())) << "bucket " << b;
    EXPECT_EQ(feats.flowsim_fg.has[bi], !v.empty()) << "bucket " << b;
    for (int p = 1; p <= 100; ++p) {
      EXPECT_EQ(feats.flowsim_fg.pct[bi][static_cast<std::size_t>(p - 1)],
                v.empty() ? 0.0 : RefPercentile(v, p))
          << "bucket " << b << " p " << p;
    }
  }
}

TEST(FeatureWriter, TargetTensorLogsEveryPercentile) {
  TargetDist t;
  const std::vector<double> sorted = Sorted(TiedValues(13, 1.0));
  Percentiles100OfSorted(sorted, t.pct[1]);
  t.has[1] = true;
  t.counts[1] = 13.0;
  const ml::Tensor out = TargetToTensor(t);
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      const double v = t.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
      EXPECT_EQ(out.at(0, b * kNumPercentiles + p), RefLog(v)) << "bucket " << b << " p " << p;
    }
  }
}

}  // namespace
}  // namespace m3
