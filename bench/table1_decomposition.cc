// Table 1: p99 FCT slowdown and runtime of full packet simulation ("ns-3"),
// Parsimon (link-level decomposition), and ns-3-path (path-level
// decomposition) across the three production mixes.
//
// Paper reference (10M flows, 256 hosts):
//   Mix 1: ns-3 4.565 / Parsimon 5.023 / ns-3-path 4.527
//   Mix 2: ns-3 4.602 / Parsimon 4.893 / ns-3-path 4.504
//   Mix 3: ns-3 13.891 / Parsimon 15.24 / ns-3-path 13.07
// The reproduction's claim is the ordering: ns-3-path tracks ns-3 closely
// (~2% error) while Parsimon deviates more, at much lower runtime.
#include "bench/common.h"
#include "pktsim/simulator.h"

using namespace m3;
using namespace m3::bench;

int main() {
  std::printf("=== Table 1: decomposition accuracy (scaled: %d flows/mix) ===\n",
              DefaultFlows());
  const int paths = DefaultPaths();
  std::printf("%-6s %-14s %8s %8s | %10s %10s %10s | %8s %8s %8s\n", "mix", "workload",
              "oversub", "load", "ns3.p99", "pars.p99", "path.p99", "ns3.s", "pars.s",
              "path.s");

  const struct {
    double paper_ns3, paper_pars, paper_path;
  } paper[3] = {{4.565, 5.023, 4.527}, {4.602, 4.893, 4.504}, {13.891, 15.24, 13.07}};

  int i = 0;
  for (const Mix& mix : Table1Mixes()) {
    BuiltMix built = BuildMix(mix, DefaultFlows());

    WallTimer t_full;
    const auto truth = RunPacketSim(built.ft->topo(), built.wl.flows, built.cfg);
    const double full_s = t_full.Seconds();
    const double p99_true = SummarizeGroundTruth(truth).CombinedP99();

    WallTimer t_pars;
    ParsimonOptions popts;
    popts.cfg = built.cfg;
    const auto pars = RunParsimon(built.ft->topo(), built.wl.flows, popts);
    const double pars_s = t_pars.Seconds();
    const double p99_pars = SummarizeGroundTruth(pars).CombinedP99();

    M3Options opts;
    opts.num_paths = paths;
    const NetworkEstimate path_est = RunNs3Path(built.ft->topo(), built.wl.flows, built.cfg, opts);
    const double p99_path = path_est.CombinedP99();

    std::printf("%-6s %-14s %7.0f:1 %7.0f%% | %10.3f %10.3f %10.3f | %7.1fs %7.1fs %7.1fs\n",
                mix.name.c_str(), mix.workload.c_str(), mix.oversub, 100 * mix.max_load,
                p99_true, p99_pars, p99_path, full_s, pars_s, path_est.wall_seconds);
    std::printf("       paper(10M flows):        ns3=%.3f  parsimon=%.3f  ns3-path=%.3f\n",
                paper[i].paper_ns3, paper[i].paper_pars, paper[i].paper_path);
    std::printf("       |err| vs ns-3:           parsimon=%.1f%%  ns3-path=%.1f%%\n",
                AbsErrPct(p99_pars, p99_true), AbsErrPct(p99_path, p99_true));
    std::fflush(stdout);
    ++i;
  }
  std::printf("claim: ns-3-path |err| < parsimon |err| on average (paper: 2%% vs 9%%)\n");
  return 0;
}
