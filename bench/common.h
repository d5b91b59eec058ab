// Shared helpers for the bench binaries.
//
// Every bench binary regenerates one table or figure from the paper at a
// reduced default scale so the whole suite runs in minutes on one CPU.
// Set M3_SCALE=N (default 1) to multiply workload sizes, and M3_PATHS /
// M3_FLOWS to override directly; each must be a whole integer >= 1.
// Paper reference values are printed in a `paper=` column where the paper
// states a number; see EXPERIMENTS.md for the recorded comparison.
// The accuracy benches score m3, and load their model, through bench/eval.h.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "bench/eval.h"
#include "core/estimator.h"
#include "parsimon/parsimon.h"
#include "pathdecomp/decompose.h"
#include "tools/cli.h"
#include "topo/fat_tree.h"
#include "util/stats.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace m3::bench {

/// $name as a whole integer >= 1, or `def` when unset. Anything else exits
/// 2: a typo must not become a 0-path query scored as accuracy.
inline int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr) return def;
  constexpr cli::Tool kEnv{"bench", "M3_* sizes are whole integers >= 1.\n"};
  return kEnv.ParseInt<int>(name, v, 1, std::numeric_limits<int>::max());
}

inline int Scale() { return EnvInt("M3_SCALE", 1); }

/// Default workload size for full-network benches.
inline int DefaultFlows() { return EnvInt("M3_FLOWS", 20000 * Scale()); }

/// Default number of sampled paths.
inline int DefaultPaths() { return EnvInt("M3_PATHS", 100 * Scale()); }

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A named full-network scenario: topology + workload + config.
struct Mix {
  std::string name;
  std::string tm_name;
  std::string workload;
  double oversub;
  double max_load;
  double sigma;
};

struct BuiltMix {
  std::unique_ptr<FatTree> ft;
  GeneratedWorkload wl;
  NetConfig cfg;
};

inline BuiltMix BuildMix(const Mix& mix, int num_flows, std::uint64_t seed = 1) {
  BuiltMix out;
  out.ft = std::make_unique<FatTree>(FatTreeConfig::Small(mix.oversub));
  const auto tm = TrafficMatrix::ByName(mix.tm_name, out.ft->num_racks(),
                                        out.ft->config().racks_per_pod);
  const auto sizes = MakeProductionDist(mix.workload);
  WorkloadSpec spec;
  spec.num_flows = num_flows;
  spec.max_load = mix.max_load;
  spec.burstiness_sigma = mix.sigma;
  spec.seed = seed;
  out.wl = GenerateWorkload(*out.ft, tm, *sizes, spec);
  out.cfg = NetConfig();  // DCTCP defaults (Parsimon's fast mode is DCTCP-only)
  return out;
}

/// EvalNetwork on a built mix. A failed estimate prints its status and
/// exits with its tools/cli.h code.
inline NetworkRow EvalMix(const BuiltMix& built, const M3Model& model, bool with_parsimon,
                          int num_paths = DefaultPaths()) {
  M3Options opts;
  opts.num_paths = num_paths;
  StatusOr<NetworkRow> row =
      EvalNetwork(built.ft->topo(), built.wl.flows, built.cfg, model, opts, with_parsimon);
  if (!row.ok()) {
    std::fprintf(stderr, "%s: %s\n", program_invocation_short_name,
                 row.status().ToString().c_str());
    std::exit(cli::ExitCodeFor(row.status().code()));
  }
  return std::move(row).value();
}

/// The paper's Table 1 mixes (scaled flow counts).
inline std::vector<Mix> Table1Mixes() {
  return {
      {"Mix 1", "A", "CacheFollower", 4.0, 0.42, 1.5},
      {"Mix 2", "B", "WebServer", 1.0, 0.28, 1.5},
      {"Mix 3", "C", "WebServer", 2.0, 0.74, 1.5},
  };
}

/// p99 of the true slowdowns of the sampled paths' foreground flows.
inline double SampleP99(const PathDecomposition& decomp, const std::vector<std::size_t>& sample,
                        const std::vector<FlowResult>& truth) {
  std::vector<double> sldn;
  for (std::size_t idx : sample) {
    for (FlowId f : decomp.path(idx).fg_flows) {
      sldn.push_back(truth[static_cast<std::size_t>(f)].slowdown);
    }
  }
  return Percentile(std::move(sldn), 99);
}

/// |relative error| of an estimate vs truth, as a percentage.
inline double AbsErrPct(double estimate, double truth) {
  return 100.0 * std::abs(RelativeError(estimate, truth));
}

inline const char* BucketLabel(int b) {
  switch (b) {
    case 0: return "(0,1KB]";
    case 1: return "(1KB,10KB]";
    case 2: return "(10KB,50KB]";
    case 3: return "(50KB,inf)";
  }
  return "?";
}

}  // namespace m3::bench
