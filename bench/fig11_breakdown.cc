// Figure 11: sensitivity of the p99 slowdown error to workload parameters:
// grouped by traffic matrix, size distribution, oversubscription, and
// burstiness, for m3 and Parsimon.
//
// Paper claim: m3's error is stable across every grouping; Parsimon's error
// is larger and skewed, worst for matrix A, WebServer, 4:1 oversubscription
// and sigma=2. m3 degrades slightly on matrix C (few-flow paths).
#include <map>

#include "bench/common.h"

using namespace m3;
using namespace m3::bench;

int main() {
  const int num_scenarios = std::max(8, 6 * Scale());
  std::printf("=== Fig 11: error breakdown over %d scenarios ===\n", num_scenarios);
  const M3Model& model = DefaultModel();

  struct Case {
    std::string tm, wl;
    double oversub, sigma;
    double m3_err, pars_err;
  };
  std::vector<Case> cases;

  Rng rng(31);
  const char* tms[3] = {"A", "B", "C"};
  const char* wls[3] = {"CacheFollower", "WebServer", "Hadoop"};
  const double oversubs[3] = {1.0, 2.0, 4.0};
  for (int s = 0; s < num_scenarios; ++s) {
    Mix mix;
    mix.name = "S" + std::to_string(s);
    mix.tm_name = tms[s % 3];
    mix.workload = wls[(s / 3) % 3];
    mix.oversub = oversubs[rng.NextBounded(3)];
    mix.sigma = (s % 2) ? 2.0 : 1.0;
    mix.max_load = rng.Uniform(0.3, 0.7);
    BuiltMix built = BuildMix(mix, DefaultFlows(), 900 + static_cast<std::uint64_t>(s));

    const NetworkRow row = EvalMix(built, model, true);
    const double p99_true = row.truth.CombinedP99();
    cases.push_back({mix.tm_name, mix.workload, mix.oversub, mix.sigma,
                     AbsErrPct(row.m3.CombinedP99(), p99_true),
                     AbsErrPct(row.parsimon->CombinedP99(), p99_true)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");

  auto report = [&](const char* dim, auto key_fn) {
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> groups;
    for (const Case& c : cases) {
      auto& g = groups[key_fn(c)];
      g.first.push_back(c.m3_err);
      g.second.push_back(c.pars_err);
    }
    std::printf("by %s:\n", dim);
    for (auto& [k, v] : groups) {
      std::printf("  %-14s m3 median=%5.1f%%  parsimon median=%5.1f%% (n=%zu)\n", k.c_str(),
                  Percentile(v.first, 50), Percentile(v.second, 50), v.first.size());
    }
  };
  report("traffic matrix", [](const Case& c) { return c.tm; });
  report("workload", [](const Case& c) { return c.wl; });
  report("oversubscription",
         [](const Case& c) { return std::to_string(static_cast<int>(c.oversub)) + ":1"; });
  report("burstiness",
         [](const Case& c) { return "sigma=" + std::to_string(static_cast<int>(c.sigma)); });
  std::printf("paper: m3 stays stable across all groupings; Parsimon skews badly on\n"
              "matrix A / WebServer / 4:1 / sigma=2\n");
  return 0;
}
