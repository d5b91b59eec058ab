// Figure 15: error breakdown for paths' foreground flows -- how much of
// m3's error comes from path decomposition (ns-3-path's error) vs from the
// flowSim+ML approximation, by flow-size bucket and path length; Parsimon's
// link-independence error shown for comparison.
//
// Paper claim: ignoring non-intersecting traffic (decomposition) accounts
// for less than half of m3's error; Parsimon's link-independence assumption
// is strictly worse across buckets and path lengths.
#include <map>

#include "bench/common.h"

using namespace m3;
using namespace m3::bench;

int main() {
  const int num_paths = std::max(8, DefaultPaths() / 2);
  std::printf("=== Fig 15: error breakdown on sampled paths (%d paths/mix) ===\n", num_paths);
  const M3Model& model = DefaultModel();

  // Per method: per-bucket and per-hop-count |p99 error| collections.
  std::map<std::string, std::map<int, std::vector<double>>> by_bucket, by_hops;

  for (const Mix& mix : Table1Mixes()) {
    BuiltMix built = BuildMix(mix, DefaultFlows(), 1300);
    for (const PathRow& r : EvalSampledPaths(built.ft->topo(), built.wl.flows, built.cfg, model,
                                             num_paths, 41)) {
      const double path_err = r.pktsim ? AbsErrPct(*r.pktsim, r.truth) : 100.0;
      const double m3_err = AbsErrPct(r.m3, r.truth);
      const double pars_err = AbsErrPct(*r.parsimon, r.truth);
      by_bucket["ns3-path"][r.bucket].push_back(path_err);
      by_bucket["m3"][r.bucket].push_back(m3_err);
      by_bucket["parsimon"][r.bucket].push_back(pars_err);
      by_hops["ns3-path"][r.hops].push_back(path_err);
      by_hops["m3"][r.hops].push_back(m3_err);
      by_hops["parsimon"][r.hops].push_back(pars_err);
    }
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\nmedian |p99 err| by flow-size bucket:\n");
  std::printf("%-12s %10s %10s %10s\n", "bucket", "ns3-path", "m3", "parsimon");
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    auto& np = by_bucket["ns3-path"][b];
    if (np.empty()) continue;
    std::printf("%-12s %9.1f%% %9.1f%% %9.1f%%\n", BucketLabel(b), Percentile(np, 50),
                Percentile(by_bucket["m3"][b], 50), Percentile(by_bucket["parsimon"][b], 50));
  }
  std::printf("median |p99 err| by path length:\n");
  std::printf("%-12s %10s %10s %10s\n", "hops", "ns3-path", "m3", "parsimon");
  for (const auto& [hops, errs] : by_hops["ns3-path"]) {
    std::printf("%-12d %9.1f%% %9.1f%% %9.1f%%\n", hops, Percentile(errs, 50),
                Percentile(by_hops["m3"][hops], 50), Percentile(by_hops["parsimon"][hops], 50));
  }
  std::printf("paper: decomposition (ns3-path) < half of m3's error; parsimon strictly worse\n");
  return 0;
}
