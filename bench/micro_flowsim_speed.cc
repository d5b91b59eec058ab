// Microbenchmark: flowSim throughput vs the packet simulator on the same
// path scenario, backing the paper's "800K flows in ~1 second, 687x faster
// than ns-3" claim for the featurizer.
//
// Usage: micro_flowsim_speed [min_seconds_per_row]   (default 1.0)
// Each row runs its simulation once to warm up, then repeats it until
// `min_seconds_per_row` of wall time has passed, and reports the mean.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/scenario.h"
#include "flowsim/flowsim.h"
#include "pktsim/simulator.h"

namespace m3::bench {
namespace {

PathScenario MakeScenario(int num_fg) {
  SyntheticSpec spec;
  spec.num_links = 4;
  spec.family = ParametricFamily::kLogNormal;
  spec.theta = 20000.0;
  spec.sigma = 1.5;
  spec.max_load = 0.5;
  spec.num_fg = num_fg;
  spec.bg_ratio = 1.0;
  spec.seed = 99;
  return BuildSyntheticScenario(spec);
}

// Keeps each run's results observable so the call cannot be elided.
volatile std::size_t g_sink = 0;

template <typename Fn>
void Row(const char* name, int arg, std::size_t flows, double min_seconds, Fn run) {
  g_sink = g_sink + run().size();  // warm-up
  int iters = 0;
  const WallTimer timer;
  do {
    g_sink = g_sink + run().size();
    ++iters;
  } while (timer.Seconds() < min_seconds);
  const double secs = timer.Seconds();
  std::printf("%-24s %10.3f %8d %14.0f\n",
              (std::string(name) + "/" + std::to_string(arg)).c_str(), 1e3 * secs / iters,
              iters, static_cast<double>(flows) * iters / secs);
  std::fflush(stdout);
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) {
  using namespace m3;
  using namespace m3::bench;
  const double min_seconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  if (!(min_seconds > 0.0)) {
    std::fprintf(stderr, "usage: micro_flowsim_speed [min_seconds_per_row > 0]\n");
    return 2;
  }
  std::printf("%-24s %10s %8s %14s\n", "row", "ms/iter", "iters", "flows/s");

  for (int n : {500, 2000, 8000}) {
    const PathScenario sc = MakeScenario(n);
    Row("BM_FlowSim", n, sc.flows.size(), min_seconds,
        [&] { return RunFlowSim(sc.lot->topo(), sc.flows); });
  }
  for (int n : {500, 2000}) {
    const PathScenario sc = MakeScenario(n);
    const NetConfig cfg;
    Row("BM_PacketSim", n, sc.flows.size(), min_seconds,
        [&] { return RunPacketSim(sc.lot->topo(), sc.flows, cfg); });
  }
  // Isolated cost of one arrival event at high active-flow counts.
  for (int n : {200, 500}) {
    const PathScenario sc = MakeScenario(n);
    std::vector<Flow> burst = sc.flows;
    for (Flow& f : burst) f.arrival = 0;  // all flows active at once
    Row("BM_MaxMinRecompute", n, burst.size(), min_seconds,
        [&] { return RunFlowSim(sc.lot->topo(), burst); });
  }
  return 0;
}
