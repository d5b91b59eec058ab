// The m3 model (§3.4): a transformer encoder summarizes the per-hop
// background feature maps into a context vector; a two-layer MLP maps
// [foreground feature map, context, network spec] to the corrected
// foreground slowdown distribution (4 size buckets x 100 percentiles, in
// log-slowdown space).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/feature_map.h"
#include "core/net_config.h"
#include "ml/checkpoint.h"
#include "ml/layers.h"
#include "ml/optimizer.h"
#include "ml/transformer.h"
#include "util/status.h"

namespace m3 {

struct M3ModelConfig {
  int feat_dim = kFeatureDim;
  int d_model = 96;
  int num_heads = 4;
  int num_layers = 2;
  int ff_dim = 192;
  int spec_dim = kSpecDim;
  int mlp_hidden = 256;
  int out_dim = kNumOutputBuckets * kNumPercentiles;
  int max_seq = 8;
  std::uint64_t init_seed = 1234;
};

class M3Model {
 public:
  /// A fresh model, randomly initialized from cfg.init_seed.
  explicit M3Model(const M3ModelConfig& cfg = M3ModelConfig());
  /// A model whose every parameter comes from `params`: a parsed checkpoint
  /// (ml::CheckpointParams) for a served load, which draws no random
  /// number and allocates no training state.
  M3Model(const M3ModelConfig& cfg, ml::ParamSource& params);

  /// One path's inputs to Infer (not owned).
  struct Input {
    const ml::Tensor* fg_feat = nullptr;   // [1, feat_dim]
    const ml::Tensor* bg_seq = nullptr;    // [n_hops, feat_dim]; read only with context
    const ml::Tensor* spec = nullptr;      // [1, spec_dim]
    const ml::Tensor* baseline = nullptr;  // [1, out_dim]; nullptr = zero baseline
  };

  /// Throws the std::invalid_argument Forward would throw for `in`
  /// (TransformerEncoder's for an n_hops outside [1, max_seq] or a wrong
  /// column count), or one naming the bad tensor.
  void CheckInput(const Input& in, bool use_context) const;

  /// Graph-free inference over a batch of paths, the inference path of
  /// Predict and RunM3. Row i of `raw` ([inputs.size(), out_dim],
  /// row-major) receives path i's raw model output plus its baseline,
  /// bitwise equal to g.value(Forward(...)) + *baseline for that path
  /// alone, for every kernel implementation. The paths' hops are stacked
  /// so each projection runs once over many rows (see ml/transformer.h),
  /// in passes of at most 64 hop rows that bound the per-thread scratch.
  /// Checks every input before any compute. Const and thread-safe (scratch
  /// is per thread); an empty batch does nothing.
  void Infer(std::span<const Input> inputs, bool use_context, float* raw) const;

  /// Builds the forward pass (the training graph). `bg_seq` is [n_hops, feat_dim] (n >= 1; pass
  /// a zero row if a hop has no background traffic). When `use_context` is
  /// false the context vector is replaced with zeros (the paper's "m3 w/o
  /// context" ablation, Fig. 16).
  ml::Var Forward(ml::Graph& g, const ml::Tensor& fg_feat, const ml::Tensor& bg_seq,
                  const ml::Tensor& spec, bool use_context = true);

  /// Inference: decoded slowdown percentiles per output bucket (a one-path
  /// Infer; no graph is built). The model
  /// output is a log-space *correction* added to `baseline` (flowSim's own
  /// bucketed log-slowdown percentiles, [1, 400]); pass nullptr for a zero
  /// baseline (absolute prediction). When `num_nonfinite` is non-null it
  /// receives the number of raw output values that were NaN/inf before the
  /// decode clamp — a non-zero count means the forward pass was poisoned
  /// and the decoded floor values should not be trusted.
  std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> Predict(
      const ml::Tensor& fg_feat, const ml::Tensor& bg_seq, const ml::Tensor& spec,
      bool use_context = true, const ml::Tensor* baseline = nullptr,
      int* num_nonfinite = nullptr) const;

  /// Every parameter in a fixed order (the checkpoint and identity order).
  std::vector<ml::Parameter*> params();
  std::vector<const ml::Parameter*> params() const;
  std::size_t num_parameters() const;

  /// Writes a params-only checkpoint (atomic; parent directories are
  /// created). TrainModel's checkpoint_path saves carry optimizer/trainer
  /// state as well — prefer those for resumable training runs.
  void Save(const std::string& path);
  /// Loads any checkpoint version; returns what the file carried (version,
  /// optimizer/trainer sections). Throws on corrupt or mismatched files
  /// without modifying the model.
  ml::CheckpointInfo Load(const std::string& path);

  /// Status-returning Load for service boundaries: kNotFound for a missing
  /// file, kDataLoss for corruption/truncation, kInvalidArgument when the
  /// checkpoint's tensors do not match this model's compiled dimensions.
  /// Never throws; on error the model is unchanged.
  StatusOr<ml::CheckpointInfo> TryLoad(const std::string& path);

  const M3ModelConfig& config() const { return cfg_; }

 private:
  void Build(ml::ParamSource& encoder, ml::ParamSource& head);
  // One stacked forward over checked inputs (Infer splits the batch).
  void InferPass(std::span<const Input> inputs, bool use_context, float* raw) const;

  M3ModelConfig cfg_;
  ml::TransformerEncoder bg_encoder_;
  ml::Mlp head_;
};

/// A model for inference straight from a checkpoint, built as a served load
/// builds it (ml::CheckpointParams): no random init, no training state.
/// Errors are TryLoad's, with the same codes and messages.
StatusOr<std::unique_ptr<M3Model>> LoadInferenceModel(const std::string& path,
                                                      const M3ModelConfig& cfg = M3ModelConfig());

}  // namespace m3
