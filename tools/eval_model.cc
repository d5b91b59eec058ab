// Evaluates a model checkpoint on a held-out synthetic path set and on a
// small full-network suite: per-bucket p99 error vs flowSim, plus
// network-wide p99 error vs the packet simulator.
//
// Exit codes: 0 OK, 2 usage, 4 checkpoint not found, 5 checkpoint corrupt.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.h"
#include "core/dataset.h"
#include "pktsim/simulator.h"

using namespace m3;
using namespace m3::bench;

namespace {

constexpr const char* kUsage =
    "Usage: eval_model --model PATH [options]\n"
    "\n"
    "  --model PATH        checkpoint to evaluate (required)\n"
    "  --paths N           held-out synthetic paths, >= 1       (60)\n"
    "  --net-scenarios N   full-network probe scenarios, >= 0   (3)\n"
    "  --help              show this message\n"
    "\n"
    "Positional form `eval_model <checkpoint> [paths] [net_scenarios]` is\n"
    "also accepted for compatibility; values are validated either way.\n";

[[noreturn]] void UsageError(const std::string& msg) {
  std::fprintf(stderr, "eval_model: %s\n\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

// Strict parse: the whole token must be an integer in range (std::atoi's
// silent garbage acceptance turned typos into 0-path evals).
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

struct Args {
  std::string model_path;
  int num_paths = 60;
  int num_net = 3;
};

Args Parse(int argc, char** argv) {
  Args a;
  // Positional compatibility: eval_model <ckpt> [paths] [net].
  if (argc >= 2 && argv[1][0] != '-') {
    if (argc > 4) UsageError("too many positional arguments");
    a.model_path = argv[1];
    if (argc > 2) a.num_paths = static_cast<int>(ParseInt("paths", argv[2], 1, 1'000'000));
    if (argc > 3) a.num_net = static_cast<int>(ParseInt("net_scenarios", argv[3], 0, 10'000));
    return a;
  }
  int i = 1;
  while (i < argc) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (key.rfind("--", 0) != 0) UsageError("unexpected argument '" + key + "'");
    if (i + 1 >= argc) UsageError("missing value for " + key);
    const char* v = argv[i + 1];
    if (key == "--model") a.model_path = v;
    else if (key == "--paths") a.num_paths = static_cast<int>(ParseInt(key, v, 1, 1'000'000));
    else if (key == "--net-scenarios") a.num_net = static_cast<int>(ParseInt(key, v, 0, 10'000));
    else UsageError("unknown flag '" + key + "'");
    i += 2;
  }
  if (a.model_path.empty()) UsageError("--model is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);

  StatusOr<std::unique_ptr<M3Model>> loaded = LoadInferenceModel(a.model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "eval_model: %s\n", loaded.status().ToString().c_str());
    if (loaded.status().code() == StatusCode::kNotFound) {
      std::fprintf(stderr, "eval_model: run tools/train_m3 first to produce %s\n",
                   a.model_path.c_str());
      return 4;
    }
    return 5;
  }
  const M3Model& model = **loaded;

  // Held-out synthetic paths (fixed eval seed).
  DatasetOptions eopts;
  eopts.num_scenarios = a.num_paths;
  eopts.num_fg = 600;
  eopts.seed = 987654;
  const auto eval = MakeSyntheticDataset(eopts);

  std::vector<double> fs_err, m3_err;
  for (const Sample& s : eval) {
    const auto pred = model.Predict(s.fg_feat, s.bg_seq, s.spec, true, &s.baseline);
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      if (!s.gt.has[static_cast<std::size_t>(b)]) continue;
      const double t99 = s.gt.pct[static_cast<std::size_t>(b)][98];
      if (t99 <= 0) continue;
      if (s.flowsim.has[static_cast<std::size_t>(b)]) {
        fs_err.push_back(AbsErrPct(s.flowsim.pct[static_cast<std::size_t>(b)][98], t99));
      }
      m3_err.push_back(AbsErrPct(pred[static_cast<std::size_t>(b)][98], t99));
    }
  }
  std::printf("held-out paths (%d): per-bucket |p99 err| flowSim mean=%.1f%% median=%.1f%% "
              "| m3 mean=%.1f%% median=%.1f%%\n",
              a.num_paths, Mean(fs_err), Percentile(fs_err, 50), Mean(m3_err),
              Percentile(m3_err, 50));

  // Full-network probes.
  Rng rng(135);
  std::vector<double> net_err;
  for (int s = 0; s < a.num_net; ++s) {
    Mix mix = Table1Mixes()[static_cast<std::size_t>(s) % 3];
    mix.max_load = rng.Uniform(0.35, 0.65);
    BuiltMix built = BuildMix(mix, 20000, 7000 + static_cast<std::uint64_t>(s));
    const auto truth = RunPacketSim(built.ft->topo(), built.wl.flows, built.cfg);
    M3Options opts;
    opts.num_paths = 100;
    const NetworkEstimate est = RunM3(built.ft->topo(), built.wl.flows, built.cfg, model, opts);
    const double err = AbsErrPct(est.CombinedP99(), P99Slowdown(truth));
    net_err.push_back(err);
    std::printf("net scenario %d (%s, load %.0f%%): |p99 err| = %.1f%%\n", s,
                mix.name.c_str(), 100 * mix.max_load, err);
  }
  if (a.num_net > 0) {
    std::printf("network-wide mean |p99 err| = %.1f%%\n", Mean(net_err));
  }
  return 0;
}
