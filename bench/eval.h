// The accuracy harness: eval_model, train_m3 and the figure benches score
// m3 through here. A row holds values, not errors (the truth and each
// method's answer for one case); each program keeps its own scenario draws
// and derives the error it prints.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/estimator.h"

namespace m3::bench {

/// One path's p99 slowdown in one output bucket. The truth is the packet
/// simulator on the path, or on the whole network for a sampled path.
struct PathRow {
  int bucket = 0;
  int hops = 0;
  double truth = 0.0;
  double m3 = 0.0;
  std::optional<double> flowsim;   // absent when flowSim has no flow in the bucket
  std::optional<double> parsimon;  // sampled paths only
  std::optional<double> pktsim;    // sampled paths only: path-level, absent as flowsim
};

/// One network: each method's answer with the wall seconds it took.
struct NetworkRow {
  NetworkEstimate truth;  // SummarizeGroundTruth of the packet simulator
  NetworkEstimate m3;     // RunM3's answer, status OK
  std::optional<NetworkEstimate> parsimon;
};

/// A row per (sample, bucket) whose truth has flows and a positive p99, in
/// sample then bucket order. The model predicts with `use_context`, over
/// flowSim's baseline when `use_baseline`.
std::vector<PathRow> EvalSyntheticPaths(const M3Model& model, std::span<const Sample> samples,
                                        bool use_context, bool use_baseline);

/// RunM3 with `opts`, the packet simulator and, when `with_parsimon`,
/// Parsimon on one network. An m3 estimate whose status is not OK comes
/// back as that status, never as a row.
StatusOr<NetworkRow> EvalNetwork(const Topology& topo, const std::vector<Flow>& flows,
                                 const NetConfig& cfg, const M3Model& model,
                                 const M3Options& opts, bool with_parsimon);

/// Samples `num_paths` paths of one network with an Rng seeded by
/// `sample_seed`, and gives a row per (path with >= 5 foreground flows,
/// bucket holding >= 3 of them), with every optional field filled.
std::vector<PathRow> EvalSampledPaths(const Topology& topo, const std::vector<Flow>& flows,
                                      const NetConfig& cfg, const M3Model& model,
                                      int num_paths, std::uint64_t sample_seed);

/// Loads the model cached at `path`, or trains it by the quick recipe (150
/// scenarios of 400 foreground flows from dataset seed `seed`, 30 epochs)
/// and caches it there. Prints a "# <what>:" line naming the recipe.
void LoadOrTrainQuick(M3Model& model, const std::string& path, const char* what,
                      std::uint64_t seed = 7, bool use_context = true);

/// The bench model: the checkpoint at $M3_MODEL, else at train_m3's
/// models/m3_default.ckpt, else the quick model, cached at
/// models/m3_quick.ckpt so it is never taken for the full one.
const M3Model& DefaultModel();

}  // namespace m3::bench
