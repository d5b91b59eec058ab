// Figure 5: (left) number of populated paths per scenario; (right) relative
// p99 slowdown error of the flow-weighted path sample vs the full flow set,
// as a function of sample size.
//
// Paper claim: sampling 100 paths beats Parsimon's accuracy; 500 paths
// bounds the relative p99 error within 10%.
#include "bench/common.h"
#include "pathdecomp/decompose.h"
#include "pathdecomp/sampling.h"
#include "pktsim/simulator.h"

using namespace m3;
using namespace m3::bench;

int main() {
  const int num_scenarios = std::max(3, 2 * Scale());
  std::printf("=== Fig 5: path counts and sampling error (%d scenarios) ===\n",
              num_scenarios);

  std::vector<int> sample_sizes{10, 50, 100, 500};
  std::vector<std::vector<double>> errors(sample_sizes.size());
  Rng scen_rng(17);

  for (int s = 0; s < num_scenarios; ++s) {
    // Rotate through the mixes with fresh seeds.
    Mix mix = Table1Mixes()[static_cast<std::size_t>(s) % 3];
    mix.max_load = scen_rng.Uniform(0.3, 0.7);
    BuiltMix built = BuildMix(mix, DefaultFlows(), 100 + static_cast<std::uint64_t>(s));

    // Ground truth p99 over all flows.
    const auto truth = RunPacketSim(built.ft->topo(), built.wl.flows, built.cfg);
    const double p99_true = SummarizeGroundTruth(truth).CombinedP99();

    PathDecomposition decomp(built.ft->topo(), built.wl.flows);
    std::printf("scenario %d (%s): %zu populated paths, true p99=%.3f\n", s,
                mix.name.c_str(), decomp.num_paths(), p99_true);

    // For each sample size: p99 over the union of sampled paths' fg flows
    // USING TRUE per-flow slowdowns (isolates sampling error, as in the
    // paper's Fig 5 methodology).
    for (std::size_t k = 0; k < sample_sizes.size(); ++k) {
      Rng rng(static_cast<std::uint64_t>(1000 + s * 10 + static_cast<int>(k)));
      const double p99 = SampleP99(decomp, SamplePaths(decomp, sample_sizes[k], rng), truth);
      errors[k].push_back(std::abs(RelativeError(p99, p99_true)));
    }
    std::fflush(stdout);
  }

  std::printf("\n%-12s %10s %10s %10s\n", "#paths", "median", "p90", "max");
  for (std::size_t k = 0; k < sample_sizes.size(); ++k) {
    const Summary s = Summarize(errors[k]);
    std::printf("%-12d %9.1f%% %9.1f%% %9.1f%%\n", sample_sizes[k], 100 * s.p50,
                100 * s.p90, 100 * s.max);
  }
  std::printf("paper: 500 paths bound the relative p99 error within 10%%\n");
  return 0;
}
