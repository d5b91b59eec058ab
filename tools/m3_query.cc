// m3_query: the interactive query interface (paper §3.1, component 8).
//
// Estimates network-wide FCT slowdown percentiles for a described scenario
// in seconds, from the command line.
//
// Queries are resilient by default: malformed inputs are rejected up front
// with a precise diagnostic, a faulting path worker degrades to its flowSim
// estimate instead of killing the query, and the degradation summary is
// printed with the answer. --strict surfaces the first fault as an error;
// --deadline bounds the wall clock and returns the partial estimate.
//
// Exit codes map Status codes so wrappers can react without parsing output:
//   0 OK   2 usage   3 INVALID_ARGUMENT   4 NOT_FOUND   5 DATA_LOSS
//   6 DEADLINE_EXCEEDED   7 INTERNAL   8 DEGRADED   9 UNAVAILABLE
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/dataset.h"
#include "core/estimator.h"
#include "core/trainer.h"
#include "topo/fat_tree.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/trace_io.h"

using namespace m3;

namespace {

constexpr const char* kUsage =
    "Usage: m3_query [options]\n"
    "\n"
    "Scenario (generated workload):\n"
    "  --tm A|B|C               traffic matrix                     (B)\n"
    "  --workload NAME          WebServer|CacheFollower|Hadoop     (WebServer)\n"
    "  --oversub F              fat-tree oversubscription, > 0     (2)\n"
    "  --load F                 target max link load, (0, 1]       (0.5)\n"
    "  --sigma F                burstiness sigma, >= 0             (1.5)\n"
    "  --flows N                foreground flows, >= 1             (20000)\n"
    "  --trace FILE             load flows from an m3-trace file instead of\n"
    "                           generating them (overrides --flows/--load/--sigma)\n"
    "\n"
    "Network configuration:\n"
    "  --cc NAME                DCTCP|TIMELY|DCQCN|HPCC            (DCTCP)\n"
    "  --window BYTES           initial window, > 0                (15000)\n"
    "  --buffer BYTES           per-port buffer, > 0               (300000)\n"
    "  --pfc 0|1                enable PFC                         (0)\n"
    "\n"
    "Estimation:\n"
    "  --paths N                sampled paths, >= 1                (100)\n"
    "  --model PATH             checkpoint                         (models/m3_default.ckpt)\n"
    "  --percentile P           reported percentile, [1, 100]      (99)\n"
    "  --strict                 fail the query on the first path fault instead\n"
    "                           of degrading around it\n"
    "  --deadline SECONDS       wall-clock budget; on expiry the partial\n"
    "                           estimate is returned (exit code 6)\n"
    "  --help                   show this message\n";

[[noreturn]] void UsageError(const std::string& msg) {
  std::fprintf(stderr, "m3_query: %s\n\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

// Strict numeric parsers: the whole token must parse and lie in range
// (std::atoi-style silent garbage acceptance is how a typo'd flag used to
// become a zero-path query).
long ParseInt(const std::string& key, const char* arg, long min, long max) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v < min || v > max) {
    UsageError("invalid " + key + " '" + arg + "' (expected integer in [" +
               std::to_string(min) + ", " + std::to_string(max) + "])");
  }
  return v;
}

double ParseDouble(const std::string& key, const char* arg, double min, double max) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || errno == ERANGE || !(v >= min) || !(v <= max)) {
    UsageError("invalid " + key + " '" + arg + "' (expected number in [" +
               std::to_string(min) + ", " + std::to_string(max) + "])");
  }
  return v;
}

struct Args {
  std::string tm = "B";
  std::string workload = "WebServer";
  double oversub = 2.0;
  double load = 0.5;
  double sigma = 1.5;
  int flows = 20000;
  std::string trace;
  std::string cc = "DCTCP";
  Bytes window = 15 * kKB;
  Bytes buffer = 300 * kKB;
  bool pfc = false;
  int paths = 100;
  std::string model_path = "models/m3_default.ckpt";
  double percentile = 99.0;
  bool strict = false;
  double deadline = 0.0;
};

Args Parse(int argc, char** argv) {
  Args a;
  int i = 1;
  // Flags that take no value.
  auto is_bare = [](const std::string& k) { return k == "--strict" || k == "--help" || k == "-h"; };
  while (i < argc) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (key == "--strict") {
      a.strict = true;
      ++i;
      continue;
    }
    if (key.rfind("--", 0) != 0) {
      UsageError("unexpected argument '" + key + "'");
    }
    static const char* kValueFlags[] = {
        "--tm",     "--workload", "--oversub", "--load",  "--sigma",
        "--flows",  "--trace",    "--cc",      "--window", "--buffer",
        "--pfc",    "--paths",    "--model",   "--percentile", "--deadline"};
    bool known = false;
    for (const char* f : kValueFlags) known |= (key == f);
    if (!known) UsageError("unknown flag '" + key + "'");
    if (i + 1 >= argc) {
      // The old parser's `i + 1 < argc` loop bound silently dropped a
      // trailing odd argument; reject it instead.
      UsageError("missing value for " + key);
    }
    const char* v = argv[i + 1];
    if (is_bare(v) == false && v[0] == '-' && v[1] == '-' && std::strlen(v) > 2 &&
        !(v[2] >= '0' && v[2] <= '9')) {
      UsageError("missing value for " + key + " (found flag '" + v + "')");
    }
    if (key == "--tm") a.tm = v;
    else if (key == "--workload") a.workload = v;
    else if (key == "--oversub") a.oversub = ParseDouble(key, v, 0.0625, 64.0);
    else if (key == "--load") a.load = ParseDouble(key, v, 1e-6, 1.0);
    else if (key == "--sigma") a.sigma = ParseDouble(key, v, 0.0, 100.0);
    else if (key == "--flows") a.flows = static_cast<int>(ParseInt(key, v, 1, 100'000'000));
    else if (key == "--trace") a.trace = v;
    else if (key == "--cc") a.cc = v;
    else if (key == "--window") a.window = ParseInt(key, v, 1, 1'000'000'000);
    else if (key == "--buffer") a.buffer = ParseInt(key, v, 1, 1'000'000'000);
    else if (key == "--pfc") a.pfc = ParseInt(key, v, 0, 1) != 0;
    else if (key == "--paths") a.paths = static_cast<int>(ParseInt(key, v, 1, 10'000'000));
    else if (key == "--model") a.model_path = v;
    else if (key == "--percentile") a.percentile = ParseDouble(key, v, 1.0, 100.0);
    else if (key == "--deadline") a.deadline = ParseDouble(key, v, 0.0, 1e9);
    i += 2;
  }
  return a;
}

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 3;
    case StatusCode::kNotFound: return 4;
    case StatusCode::kDataLoss: return 5;
    case StatusCode::kDeadlineExceeded: return 6;
    case StatusCode::kInternal: return 7;
    case StatusCode::kDegraded: return 8;
    case StatusCode::kUnavailable: return 9;
  }
  return 7;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);

  const FatTree ft(FatTreeConfig::Small(a.oversub));
  std::vector<Flow> flows;
  if (!a.trace.empty()) {
    StatusOr<std::vector<Flow>> loaded = LoadTraceOr(a.trace, ft);
    if (!loaded.ok()) {
      std::fprintf(stderr, "m3_query: %s\n", loaded.status().ToString().c_str());
      return ExitCodeFor(loaded.status().code());
    }
    flows = std::move(loaded).value();
  } else {
    const auto tm = TrafficMatrix::ByName(a.tm, ft.num_racks(), ft.config().racks_per_pod);
    const auto sizes = MakeProductionDist(a.workload);
    WorkloadSpec wspec;
    wspec.num_flows = a.flows;
    wspec.max_load = a.load;
    wspec.burstiness_sigma = a.sigma;
    flows = GenerateWorkload(ft, tm, *sizes, wspec).flows;
  }

  StatusOr<std::unique_ptr<M3Model>> model = LoadInferenceModel(a.model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "m3_query: %s\n", model.status().ToString().c_str());
    if (model.status().code() == StatusCode::kNotFound) {
      std::fprintf(stderr, "m3_query: run tools/train_m3 first to produce %s\n",
                   a.model_path.c_str());
    }
    return ExitCodeFor(model.status().code());
  }

  NetConfig cfg;
  cfg.cc = CcFromName(a.cc);
  cfg.init_window = a.window;
  cfg.buffer = a.buffer;
  cfg.pfc = a.pfc;

  M3Options opts;
  opts.num_paths = a.paths;
  opts.strict = a.strict;
  opts.deadline_seconds = a.deadline;
  const NetworkEstimate est = RunM3(ft.topo(), flows, cfg, **model, opts);

  if (!est.status.ok() && est.status.code() != StatusCode::kDegraded &&
      est.status.code() != StatusCode::kDeadlineExceeded) {
    // Validation rejection or a strict-mode fault: no usable answer.
    std::fprintf(stderr, "m3_query: %s\n", est.status.ToString().c_str());
    return ExitCodeFor(est.status.code());
  }

  std::printf("scenario: tm=%s workload=%s oversub=%.0f:1 load=%.0f%% sigma=%.1f "
              "flows=%zu cc=%s\n",
              a.tm.c_str(), a.workload.c_str(), a.oversub, 100 * a.load, a.sigma,
              flows.size(), a.cc.c_str());
  std::printf("estimated in %.1fs over %d sampled paths\n\n", est.wall_seconds, a.paths);

  const int pidx = std::min(99, std::max(0, static_cast<int>(a.percentile) - 1));
  const char* labels[4] = {"(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"};
  std::printf("%-14s %10s %12s\n", "flow class", "#flows", "slowdown");
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const auto& pct = est.bucket_pct[static_cast<std::size_t>(b)];
    if (pct.empty()) continue;
    std::printf("%-14s %10.0f %12.2f\n", labels[b],
                est.total_counts[static_cast<std::size_t>(b)], pct[static_cast<std::size_t>(pidx)]);
  }
  if (!est.combined_pct.empty()) {
    std::printf("%-14s %10s %12.2f   (p%.0f)\n", "network-wide", "-",
                est.combined_pct[static_cast<std::size_t>(pidx)], a.percentile);
  }

  if (!est.status.ok()) {
    std::printf("\nstatus: %s\n", est.status.ToString().c_str());
  }
  if (est.degradation.Degraded() || est.degradation.paths_retried > 0) {
    std::printf("degradation: %s\n", est.degradation.ToString().c_str());
    if (!est.degradation.first_error.empty()) {
      std::printf("first error: %s\n", est.degradation.first_error.c_str());
    }
  }
  return ExitCodeFor(est.status.code());
}
