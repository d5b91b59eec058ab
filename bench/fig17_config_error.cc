// Figure 17 (Appendix B): m3's p99 slowdown estimation error across the
// Table 4 configuration space, grouped by buffer size, init window, CC
// protocol, and PFC flag, on held-out synthetic paths.
//
// Paper claim: the error distribution stays comparable across every slice
// of the configuration space (the model generalizes over Table 4).
#include <map>

#include "bench/common.h"
#include "core/dataset.h"

using namespace m3;
using namespace m3::bench;

int main() {
  const int num_eval = std::max(32, 24 * Scale());
  std::printf("=== Fig 17: error across network configurations (%d paths) ===\n", num_eval);
  const M3Model& model = DefaultModel();

  // Held-out scenarios with per-scenario random Table-4 configs.
  Rng rng(90210);
  std::map<std::string, std::vector<double>> groups;
  for (int i = 0; i < num_eval; ++i) {
    Rng wl_rng = rng.Fork(static_cast<std::uint64_t>(2 * i));
    Rng cfg_rng = rng.Fork(static_cast<std::uint64_t>(2 * i + 1));
    const SyntheticSpec spec = SyntheticSpec::Sample(wl_rng, 500);
    const NetConfig cfg = NetConfig::Sample(cfg_rng);
    const PathScenario sc = BuildSyntheticScenario(spec);
    const Sample s = BuildSample(sc, cfg);
    std::vector<double> errs;
    for (const PathRow& r : EvalSyntheticPaths(model, {&s, 1}, true, true)) {
      errs.push_back(AbsErrPct(r.m3, r.truth));
    }
    if (errs.empty()) continue;
    const double err = Mean(errs);

    groups["buffer " + std::string(cfg.buffer < 350 * kKB ? "200-350KB" : "350-500KB")]
        .push_back(err);
    groups["initW " + std::string(cfg.init_window < 17 * kKB ? "5-17KB" : "17-30KB")]
        .push_back(err);
    groups[std::string("cc ") + CcName(cfg.cc)].push_back(err);
    groups[std::string("pfc ") + (cfg.pfc ? "on" : "off")].push_back(err);
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n%-18s %10s %10s %6s\n", "slice", "median", "p90", "n");
  for (const auto& [k, v] : groups) {
    std::printf("%-18s %9.1f%% %9.1f%% %6zu\n", k.c_str(), Percentile(v, 50),
                Percentile(v, 90), v.size());
  }
  std::printf("paper: error distributions are comparable across all Table-4 slices\n");
  return 0;
}
