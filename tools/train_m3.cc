// Trains the m3 model on a synthetic Table-2 dataset (ground truth from the
// packet simulator) and writes a checkpoint.
//
// Usage: train_m3 [options] [num_scenarios] [num_fg] [epochs] [out_path]
// Defaults are sized for a few minutes on a laptop-class CPU.
//
// Training is crash-safe: checkpoints are written atomically with last-K
// rotation, SIGINT/SIGTERM finishes the in-flight batch and saves before
// exiting, and --resume continues an interrupted run bitwise identically.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common.h"
#include "core/dataset.h"
#include "core/model.h"
#include "core/trainer.h"
#include "tools/cli.h"
#include "util/stats.h"

using namespace m3;

namespace {

constexpr const char* kUsage =
    "Usage: train_m3 [options] [num_scenarios] [num_fg] [epochs] [out_path]\n"
    "\n"
    "Positional arguments (defaults in parentheses):\n"
    "  num_scenarios   training scenarios to generate, >= 1        (400)\n"
    "  num_fg          foreground flows per scenario, >= 1         (800)\n"
    "  epochs          training epochs, >= 0                       (60)\n"
    "  out_path        checkpoint path                             (models/m3_default.ckpt)\n"
    "\n"
    "Options:\n"
    "  --resume[=PATH]        restore full training state (parameters, Adam\n"
    "                         moments, epoch, LR, RNG) from the newest valid\n"
    "                         checkpoint in PATH's rotation chain (default:\n"
    "                         out_path) and continue to `epochs`\n"
    "  --keep=K               retain the last K rotated checkpoints (3)\n"
    "  --checkpoint-every=N   checkpoint every N epochs (10)\n"
    "  --help                 show this message\n"
    "\n"
    "SIGINT/SIGTERM (e.g. Ctrl-C) stops gracefully: the current batch\n"
    "finishes, a checkpoint is saved, and --resume picks up where it left\n"
    "off — even mid-epoch.\n";

constexpr cli::Tool kTool{"train_m3", kUsage};

}  // namespace

int main(int argc, char** argv) {
  DatasetOptions dopts;
  dopts.num_scenarios = 400;
  TrainOptions topts;
  topts.epochs = 60;
  std::string out = "models/m3_default.ckpt";
  bool resume = false;
  std::string resume_path;  // empty: use out_path

  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else if (std::strncmp(arg, "--resume=", 9) == 0) {
      resume = true;
      resume_path = arg + 9;
    } else if (std::strncmp(arg, "--keep=", 7) == 0) {
      topts.checkpoint_keep = kTool.ParseInt<int>("--keep", arg + 7, 1, 64);
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      topts.checkpoint_every = kTool.ParseInt<int>("--checkpoint-every", arg + 19, 1, 1000000);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      kTool.UsageError(std::string("unknown flag '") + arg + "'");
    } else {
      switch (pos++) {
        case 0: dopts.num_scenarios = kTool.ParseInt<int>("num_scenarios", arg, 1, 1000000); break;
        case 1: dopts.num_fg = kTool.ParseInt<int>("num_fg", arg, 1, 100000000); break;
        case 2: topts.epochs = kTool.ParseInt<int>("epochs", arg, 0, 1000000); break;
        case 3: out = arg; break;
        default: kTool.UsageError(std::string("unexpected argument '") + arg + "'");
      }
    }
  }
  topts.verbose = true;
  topts.checkpoint_path = out;  // periodic + shutdown saves: interruption-safe
  if (resume) topts.resume_from = resume_path.empty() ? out : resume_path;
  InstallGracefulShutdownHandlers();

  std::printf("generating %d scenarios (%d fg flows each)...\n", dopts.num_scenarios,
              dopts.num_fg);
  const bench::WallTimer t_gen;
  const std::vector<Sample> samples = MakeSyntheticDataset(dopts);
  const double gen_s = t_gen.Seconds();
  std::printf("dataset ready in %.1fs (%.2fs/scenario)\n", gen_s,
              gen_s / dopts.num_scenarios);

  M3Model model;
  std::printf("model parameters: %zu\n", model.num_parameters());
  const bench::WallTimer t_train;
  TrainReport report;
  try {
    report = TrainModel(model, samples, topts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_m3: %s\n", e.what());
    return 1;
  }
  const double train_s = t_train.Seconds();

  if (!report.resumed_from.empty()) {
    std::printf("resumed from %s at epoch %d (optimizer + RNG state restored)\n",
                report.resumed_from.c_str(), report.start_epoch);
  }
  const int epochs_run = static_cast<int>(report.train_loss.size());
  if (report.train_loss.empty()) {
    std::printf("no full epoch completed (%s) in %.1fs\n",
                report.interrupted ? "interrupted" : "nothing to train", train_s);
  } else {
    std::printf("trained %d epoch%s in %.1fs; final train loss %.4f val loss %.4f\n",
                epochs_run, epochs_run == 1 ? "" : "s", train_s, report.train_loss.back(),
                report.val_loss.empty() ? 0.0 : report.val_loss.back());
  }
  if (report.interrupted) {
    std::printf("interrupted: state saved to %s — rerun with --resume to continue\n",
                out.c_str());
    return 0;
  }

  // p99 relative error on the tail of each populated bucket.
  std::vector<double> flowsim_err, m3_err;
  for (const bench::PathRow& r : bench::EvalSyntheticPaths(model, samples, true, true)) {
    if (r.flowsim) flowsim_err.push_back(std::abs(RelativeError(*r.flowsim, r.truth)));
    m3_err.push_back(std::abs(RelativeError(r.m3, r.truth)));
  }
  std::printf("train-set: |p99 err|  flowSim mean=%.1f%%  m3 mean=%.1f%%  (n=%zu)\n",
              100.0 * Mean(flowsim_err), 100.0 * Mean(m3_err), m3_err.size());
  if (!report.train_loss.empty()) {
    std::printf("checkpoint written to %s\n", out.c_str());
  }
  return 0;
}
