// Figure 10: accuracy and runtime of m3 vs Parsimon over a randomized test
// suite on the 256-host fat tree: (a) p99 error distribution, (b) error vs
// load, (c) runtime distribution, (d) runtime vs workload.
//
// Paper reference: m3 mean |p99 err| 9.9% vs Parsimon 18.3%; m3 max error
// 33% vs Parsimon 146%; m3 4-8x faster than Parsimon end to end.
#include <map>

#include "bench/common.h"

using namespace m3;
using namespace m3::bench;

int main() {
  const int num_scenarios = std::max(6, 4 * Scale());
  std::printf("=== Fig 10: m3 vs Parsimon across %d random scenarios ===\n", num_scenarios);
  const M3Model& model = DefaultModel();

  std::vector<double> m3_errs, pars_errs, m3_times, pars_times, full_times;
  std::map<int, std::vector<double>> m3_by_load, pars_by_load;
  std::map<std::string, std::vector<double>> m3_time_by_wl, pars_time_by_wl;

  Rng rng(23);
  const char* tms[3] = {"A", "B", "C"};
  const char* wls[3] = {"CacheFollower", "WebServer", "Hadoop"};
  const double oversubs[3] = {1.0, 2.0, 4.0};

  for (int s = 0; s < num_scenarios; ++s) {
    Mix mix;
    mix.name = "S" + std::to_string(s);
    mix.tm_name = tms[rng.NextBounded(3)];
    mix.workload = wls[rng.NextBounded(3)];
    mix.oversub = oversubs[rng.NextBounded(3)];
    mix.max_load = rng.Uniform(0.26, 0.8);
    mix.sigma = rng.NextDouble() < 0.5 ? 1.0 : 2.0;
    BuiltMix built = BuildMix(mix, DefaultFlows(), 500 + static_cast<std::uint64_t>(s));
    const NetworkRow row = EvalMix(built, model, true);
    const double p99_true = row.truth.CombinedP99();
    const double m3_err = AbsErrPct(row.m3.CombinedP99(), p99_true);
    const double pars_err = AbsErrPct(row.parsimon->CombinedP99(), p99_true);
    const double m3_s = row.m3.wall_seconds;
    const double pars_s = row.parsimon->wall_seconds;
    full_times.push_back(row.truth.wall_seconds);

    m3_errs.push_back(m3_err);
    pars_errs.push_back(pars_err);
    m3_times.push_back(m3_s);
    pars_times.push_back(pars_s);
    const int load_bucket = static_cast<int>(mix.max_load * 10) * 10;
    m3_by_load[load_bucket].push_back(m3_err);
    pars_by_load[load_bucket].push_back(pars_err);
    m3_time_by_wl[mix.workload].push_back(m3_s);
    pars_time_by_wl[mix.workload].push_back(pars_s);

    std::printf("%s tm=%s wl=%-13s o=%.0f:1 load=%2.0f%% sig=%.0f | true p99 %7.2f | "
                "m3 err %5.1f%% (%5.1fs) | pars err %6.1f%% (%5.1fs)\n",
                mix.name.c_str(), mix.tm_name.c_str(), mix.workload.c_str(), mix.oversub,
                100 * mix.max_load, mix.sigma, p99_true, m3_err, m3_s,
                pars_err, pars_s);
    std::fflush(stdout);
  }

  const Summary m3s = Summarize(m3_errs);
  const Summary ps = Summarize(pars_errs);
  std::printf("\n(a) |p99 err|: m3 mean=%.1f%% max=%.1f%%   parsimon mean=%.1f%% max=%.1f%%\n",
              m3s.mean, m3s.max, ps.mean, ps.max);
  std::printf("    paper:     m3 mean=9.9%% max=33.2%%   parsimon mean=18.3%% max=146%%\n");
  std::printf("(b) median err by load bucket:\n");
  for (const auto& [load, errs] : m3_by_load) {
    std::printf("    load %2d-%2d%%: m3 %.1f%%  parsimon %.1f%% (n=%zu)\n", load, load + 10,
                Percentile(errs, 50), Percentile(pars_by_load[load], 50), errs.size());
  }
  std::printf("(c) runtime: m3 mean=%.1fs  parsimon mean=%.1fs  full-sim mean=%.1fs\n",
              Mean(m3_times), Mean(pars_times), Mean(full_times));
  std::printf("(d) runtime by workload (m3 / parsimon):\n");
  for (const auto& [wl, times] : m3_time_by_wl) {
    std::printf("    %-14s %.1fs / %.1fs\n", wl.c_str(), Mean(times),
                Mean(pars_time_by_wl[wl]));
  }
  std::printf("paper: m3 runtime is insensitive to the size distribution; Parsimon\n"
              "slows down for workloads with more packets per flow\n");
  return 0;
}
