// Ablation of the §3.5 aggregation rule. The paper argues that averaging
// bucket percentiles across paths is wrong because different paths
// contribute differently to each aggregate percentile; m3 instead pools the
// per-path distributions weighted by flow count. This bench quantifies the
// difference using exact per-path ground truth (no ML in the loop), so the
// only difference between methods is the aggregation rule.
#include "bench/common.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/sampling.h"
#include "pktsim/simulator.h"

using namespace m3;
using namespace m3::bench;

namespace {

// Naive aggregation: per-percentile arithmetic mean across paths.
double NaiveP99(const std::vector<PathEstimate>& paths) {
  double total_w = 0.0, sum = 0.0;
  for (const PathEstimate& pe : paths) {
    double cnt = 0.0;
    for (double c : pe.counts) cnt += c;
    if (cnt <= 0) continue;
    // Path-combined p99 via its own count-weighted mixture.
    std::vector<std::pair<double, double>> weighted;
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      if (pe.counts[static_cast<std::size_t>(b)] <= 0) continue;
      for (int p = 0; p < kNumPercentiles; ++p) {
        weighted.emplace_back(pe.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)],
                              pe.counts[static_cast<std::size_t>(b)] / kNumPercentiles);
      }
    }
    sum += WeightedPercentile(std::move(weighted), 99);
    total_w += 1.0;
  }
  return total_w > 0 ? sum / total_w : 0.0;
}

}  // namespace

int main() {
  std::printf("=== Ablation: §3.5 pooled aggregation vs per-path averaging ===\n");

  std::vector<double> pooled_err, naive_err;
  int mix_i = 0;
  for (const Mix& mix : Table1Mixes()) {
    BuiltMix built = BuildMix(mix, DefaultFlows(), 4100 + static_cast<std::uint64_t>(mix_i++));
    const auto truth = RunPacketSim(built.ft->topo(), built.wl.flows, built.cfg);
    const double p99_true = SummarizeGroundTruth(truth).CombinedP99();

    // Exact per-path distributions from the ground truth itself.
    PathDecomposition decomp(built.ft->topo(), built.wl.flows);
    Rng rng(77);
    const auto sample = SamplePaths(decomp, DefaultPaths(), rng);
    std::vector<PathEstimate> paths;
    for (std::size_t idx : sample) {
      std::vector<SizedSlowdown> fg;
      for (FlowId f : decomp.path(idx).fg_flows) {
        fg.push_back({truth[static_cast<std::size_t>(f)].size,
                      truth[static_cast<std::size_t>(f)].slowdown});
      }
      const TargetDist dist = BuildTarget(fg);
      PathEstimate pe;
      pe.pct = dist.pct;
      pe.counts = dist.counts;
      paths.push_back(pe);
    }

    const auto bucket_pct = AggregateBuckets(paths);
    std::array<double, kNumOutputBuckets> counts{};
    for (const auto& pe : paths) {
      for (int b = 0; b < kNumOutputBuckets; ++b) {
        counts[static_cast<std::size_t>(b)] += pe.counts[static_cast<std::size_t>(b)];
      }
    }
    const double pooled = CombineBuckets(bucket_pct, counts)[98];
    const double naive = NaiveP99(paths);
    pooled_err.push_back(AbsErrPct(pooled, p99_true));
    naive_err.push_back(AbsErrPct(naive, p99_true));
    std::printf("%s: true p99=%.3f  pooled=%.3f (%.1f%%)  naive-avg=%.3f (%.1f%%)\n",
                mix.name.c_str(), p99_true, pooled, pooled_err.back(), naive,
                naive_err.back());
    std::fflush(stdout);
  }
  std::printf("\nmean |p99 err|: pooled=%.1f%%  naive-average=%.1f%%\n", Mean(pooled_err),
              Mean(naive_err));
  std::printf("claim: averaging percentiles across paths underestimates the aggregate\n"
              "tail; §3.5 pooling does not (paper §3.5, Fig 8)\n");
  return 0;
}
