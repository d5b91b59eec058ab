// Evaluates a model checkpoint on a held-out synthetic path set and on a
// small full-network suite: per-bucket p99 error vs flowSim, plus
// network-wide p99 error vs the packet simulator.
//
// Exit codes: 0 OK, 2 usage, 4 checkpoint not found, 5 checkpoint corrupt;
// an estimate that fails exits with its status's code (tools/cli.h).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.h"
#include "core/dataset.h"
#include "tools/cli.h"

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

constexpr cli::Tool kTool{"eval_model", kUsage};

struct Args {
  std::string model_path;
  int num_paths = 60;
  int num_net = 3;
};

Args Parse(int argc, char** argv) {
  Args a;
  // Positional compatibility: eval_model <ckpt> [paths] [net].
  if (argc >= 2 && argv[1][0] != '-') {
    if (argc > 4) kTool.UsageError("too many positional arguments");
    a.model_path = argv[1];
    if (argc > 2) a.num_paths = kTool.ParseInt<int>("paths", argv[2], 1, 1'000'000);
    if (argc > 3) a.num_net = kTool.ParseInt<int>("net_scenarios", argv[3], 0, 10'000);
    return a;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (key.rfind("--", 0) != 0) kTool.UsageError("unexpected argument '" + key + "'");
    const auto v = [&] { return kTool.Value(argc, argv, i++); };
    if (key == "--model") a.model_path = v();
    else if (key == "--paths") a.num_paths = kTool.ParseInt<int>(key, v(), 1, 1'000'000);
    else if (key == "--net-scenarios") a.num_net = kTool.ParseInt<int>(key, v(), 0, 10'000);
    else kTool.UsageError("unknown flag '" + key + "'");
  }
  if (a.model_path.empty()) kTool.UsageError("--model is required");
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
  std::vector<double> fs_err, m3_err;
  for (const PathRow& r : EvalSyntheticPaths(model, MakeSyntheticDataset(eopts), true, true)) {
    if (r.flowsim) fs_err.push_back(AbsErrPct(*r.flowsim, r.truth));
    m3_err.push_back(AbsErrPct(r.m3, r.truth));
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
    const NetworkRow row = EvalMix(built, model, false, 100);
    const double err = AbsErrPct(row.m3.CombinedP99(), row.truth.CombinedP99());
    net_err.push_back(err);
    std::printf("net scenario %d (%s, load %.0f%%): |p99 err| = %.1f%%\n", s,
                mix.name.c_str(), 100 * mix.max_load, err);
  }
  if (a.num_net > 0) {
    std::printf("network-wide mean |p99 err| = %.1f%%\n", Mean(net_err));
  }
  return 0;
}
