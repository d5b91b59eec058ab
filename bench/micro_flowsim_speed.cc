// Microbenchmark: flowSim throughput vs the packet simulator on the same
// path scenario, backing the paper's "800K flows in ~1 second, 687x faster
// than ns-3" claim for the featurizer.
//
// Usage: micro_flowsim_speed [min_seconds_per_row]   (default 1.0)
// Each row runs its simulation once to warm up, then repeats it until
// `min_seconds_per_row` of wall time has passed, and reports the mean.
//
// BM_FlowSimReferencePaths runs flowSim on the path scenarios of perfbench's
// reference query (Small(2.0) fat tree, TM B, WebServer, 20k flows, load
// 0.5) for kRefSeeds fixed workload seeds x 100 sampled paths. Its ms/iter
// is per 100 paths, and the row after it hashes every FlowResult, so a
// speed-up of flowSim can be shown to leave its results bit for bit.
// BM_FeaturesReferencePaths times ExtractFeatures on the same paths and
// flowSim results (ms/iter per 100 paths); `features_hash` covers every
// feature row and flowSim target it writes.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/feature_map.h"
#include "core/scenario.h"
#include "flowsim/flowsim.h"
#include "pathdecomp/path_topology.h"
#include "pathdecomp/sampling.h"
#include "pktsim/simulator.h"
#include "util/hash.h"
#include "util/rng.h"

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

constexpr int kRefSeeds = 5;
constexpr int kRefPathsPerSeed = 100;

// The sampled path scenarios of kRefSeeds reference queries.
std::vector<PathScenario> ReferenceScenarios() {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const TrafficMatrix tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const std::unique_ptr<SizeDist> sizes = MakeWebServer();
  std::vector<PathScenario> out;
  for (int s = 1; s <= kRefSeeds; ++s) {
    WorkloadSpec spec;
    spec.num_flows = 20000;
    spec.max_load = 0.5;
    spec.seed = 3000 + static_cast<std::uint64_t>(s);
    const std::vector<Flow> flows = GenerateWorkload(ft, tm, *sizes, spec).flows;
    const PathDecomposition decomp(ft.topo(), flows);
    Rng rng(spec.seed);
    for (std::size_t idx : SamplePaths(decomp, kRefPathsPerSeed, rng)) {
      out.push_back(BuildPathScenario(ft.topo(), flows, decomp, idx));
    }
  }
  return out;
}

void AbsorbTensor(Hasher& h, const ml::Tensor& t) {
  h.I32(t.rows()).I32(t.cols());
  for (std::size_t i = 0; i < t.size(); ++i) h.F32(t.data()[i]);
}

// Keeps each run's results observable so the call cannot be elided.
volatile std::size_t g_sink = 0;

// One call of `run` is `units` iterations of the row: ms/iter is the time
// of one call divided by `units`.
template <typename Fn>
void Row(const char* name, int arg, std::size_t flows, double min_seconds, Fn run,
         int units = 1) {
  g_sink = g_sink + run();  // warm-up
  int calls = 0;
  const WallTimer timer;
  do {
    g_sink = g_sink + run();
    ++calls;
  } while (timer.Seconds() < min_seconds);
  const double secs = timer.Seconds();
  std::printf("%-30s %10.3f %8d %14.0f\n",
              (std::string(name) + "/" + std::to_string(arg)).c_str(),
              1e3 * secs / (static_cast<double>(calls) * units), calls * units,
              static_cast<double>(flows) * calls / secs);
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
  std::printf("%-30s %10s %8s %14s\n", "row", "ms/iter", "iters", "flows/s");

  for (int n : {500, 2000, 8000}) {
    const PathScenario sc = MakeScenario(n);
    Row("BM_FlowSim", n, sc.flows.size(), min_seconds,
        [&] { return RunFlowSim(sc.lot->topo(), sc.flows).size(); });
  }
  {
    const std::vector<PathScenario> paths = ReferenceScenarios();
    std::size_t flows = 0;
    Hasher h;
    std::vector<std::vector<FlowResult>> results;
    for (const PathScenario& sc : paths) {
      flows += sc.flows.size();
      const std::vector<FlowResult>& res = results.emplace_back(RunPathFlowSim(sc));
      h.U64(res.size());
      for (const FlowResult& r : res) {
        h.I32(r.id).I64(r.size).I64(r.fct).I64(r.ideal_fct).F64(r.slowdown);
      }
    }
    Row("BM_FlowSimReferencePaths", static_cast<int>(paths.size()), flows, min_seconds,
        [&] {
          std::size_t n = 0;
          for (const PathScenario& sc : paths) n += RunPathFlowSim(sc).size();
          return n;
        },
        kRefSeeds);
    std::printf("%-30s %s\n", "  results_hash", h.Finish().ToHex().c_str());

    Hasher fh;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const ScenarioFeatures f = ExtractFeatures(paths[i], results[i]);
      AbsorbTensor(fh, f.fg_feat);
      AbsorbTensor(fh, f.bg_seq);
      for (std::size_t b = 0; b < kNumOutputBuckets; ++b) {
        fh.Bool(f.flowsim_fg.has[b]).F64(f.flowsim_fg.counts[b]);
        for (double v : f.flowsim_fg.pct[b]) fh.F64(v);
      }
    }
    Row("BM_FeaturesReferencePaths", static_cast<int>(paths.size()), flows, min_seconds,
        [&] {
          std::size_t n = 0;
          for (std::size_t i = 0; i < paths.size(); ++i) {
            n += ExtractFeatures(paths[i], results[i]).bg_seq.size();
          }
          return n;
        },
        kRefSeeds);
    std::printf("%-30s %s\n", "  features_hash", fh.Finish().ToHex().c_str());
  }
  for (int n : {500, 2000}) {
    const PathScenario sc = MakeScenario(n);
    const NetConfig cfg;
    Row("BM_PacketSim", n, sc.flows.size(), min_seconds,
        [&] { return RunPacketSim(sc.lot->topo(), sc.flows, cfg).size(); });
  }
  // Isolated cost of one arrival event at high active-flow counts.
  for (int n : {200, 500}) {
    const PathScenario sc = MakeScenario(n);
    std::vector<Flow> burst = sc.flows;
    for (Flow& f : burst) f.arrival = 0;  // all flows active at once
    Row("BM_MaxMinRecompute", n, burst.size(), min_seconds,
        [&] { return RunFlowSim(sc.lot->topo(), burst).size(); });
  }
  return 0;
}
