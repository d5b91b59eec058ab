#include "core/model.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "ml/checkpoint.h"
#include "util/fault.h"

namespace m3 {
namespace {

// Per-thread scratch for one Infer pass: the stacked encoder input, the
// head input rows and activations, grown to the largest pass seen.
struct InferScratch {
  ml::FloatVec seq, ctx, head_in, hidden;
  std::vector<int> lengths;
};

void CopyRow(float* dst, const ml::Tensor& t) {
  std::memcpy(dst, t.data(), t.size() * sizeof(float));
}

ml::TransformerConfig EncoderConfig(const M3ModelConfig& cfg) {
  ml::TransformerConfig tc;
  tc.input_dim = cfg.feat_dim;
  tc.d_model = cfg.d_model;
  tc.num_heads = cfg.num_heads;
  tc.num_layers = cfg.num_layers;
  tc.ff_dim = cfg.ff_dim;
  tc.max_seq = cfg.max_seq;
  return tc;
}

}  // namespace

M3Model::M3Model(const M3ModelConfig& cfg) : cfg_(cfg) {
  Rng rng(cfg.init_seed);
  Rng enc_rng = rng.Fork(1);
  Rng head_rng = rng.Fork(2);
  ml::RandomParams encoder(enc_rng), head(head_rng);
  Build(encoder, head);
}

M3Model::M3Model(const M3ModelConfig& cfg, ml::ParamSource& params) : cfg_(cfg) {
  Build(params, params);
}

void M3Model::Build(ml::ParamSource& encoder, ml::ParamSource& head) {
  bg_encoder_ = ml::TransformerEncoder("bg", EncoderConfig(cfg_), encoder);
  head_ = ml::Mlp("head", cfg_.feat_dim + cfg_.d_model + cfg_.spec_dim, cfg_.mlp_hidden,
                  cfg_.out_dim, head);
}

ml::Var M3Model::Forward(ml::Graph& g, const ml::Tensor& fg_feat, const ml::Tensor& bg_seq,
                         const ml::Tensor& spec, bool use_context) {
  // Upper bound on tape length: encoder prologue + per-block ops (which
  // grow with the head count) + the MLP head and loss nodes.
  g.Reserve(32 + static_cast<std::size_t>(cfg_.num_layers) *
                     (48 + 16 * static_cast<std::size_t>(cfg_.num_heads)));
  ml::Var ctx = use_context ? bg_encoder_.Encode(g, bg_seq)
                            : g.Input(ml::Tensor::Zeros(1, cfg_.d_model));
  ml::Var in = g.ConcatCols({g.Input(fg_feat), ctx, g.Input(spec)});
  return head_(g, in);
}

void M3Model::CheckInput(const Input& in, bool use_context) const {
  if (use_context) {
    if (in.bg_seq == nullptr) throw std::invalid_argument("M3Model: missing bg_seq");
    bg_encoder_.CheckSequence(in.bg_seq->rows(), in.bg_seq->cols());
  }
  const auto check_row = [](const ml::Tensor* t, int cols, const char* what) {
    if (t == nullptr || t->rows() != 1 || t->cols() != cols) {
      throw std::invalid_argument(std::string("M3Model: ") + what + " must be [1, " +
                                  std::to_string(cols) + "]");
    }
  };
  check_row(in.fg_feat, cfg_.feat_dim, "fg_feat");
  check_row(in.spec, cfg_.spec_dim, "spec");
  if (in.baseline != nullptr) check_row(in.baseline, cfg_.out_dim, "baseline");
}

void M3Model::Infer(std::span<const Input> inputs, bool use_context, float* raw) const {
  for (const Input& in : inputs) CheckInput(in, use_context);
  // Passes of at most kRowsPerPass hop rows (at least one path each): the
  // GEMMs keep their B-panel reuse while the per-thread scratch stays
  // bounded whatever the batch size.
  constexpr int kRowsPerPass = 64;
  std::size_t begin = 0;
  while (begin < inputs.size()) {
    std::size_t end = begin + 1;
    int rows = use_context ? inputs[begin].bg_seq->rows() : 1;
    while (end < inputs.size()) {
      const int next = use_context ? inputs[end].bg_seq->rows() : 1;
      if (rows + next > kRowsPerPass) break;
      rows += next;
      ++end;
    }
    InferPass(inputs.subspan(begin, end - begin), use_context,
              raw + begin * static_cast<std::size_t>(cfg_.out_dim));
    begin = end;
  }
}

void M3Model::InferPass(std::span<const Input> inputs, bool use_context, float* raw) const {
  thread_local InferScratch s;
  const int paths = static_cast<int>(inputs.size());
  const int feat = cfg_.feat_dim, d = cfg_.d_model, spec = cfg_.spec_dim;
  const int head_in = feat + d + spec;

  // Context vectors: one encoder pass over every path's stacked hops, or
  // zeros for the no-context ablation.
  float* ctx = ml::GrowScratch(s.ctx, static_cast<std::size_t>(paths) * d);
  if (use_context) {
    s.lengths.clear();
    std::size_t rows = 0;
    for (const Input& in : inputs) {
      s.lengths.push_back(in.bg_seq->rows());
      rows += static_cast<std::size_t>(in.bg_seq->rows());
    }
    float* seq = ml::GrowScratch(s.seq, rows * static_cast<std::size_t>(feat));
    for (const Input& in : inputs) {
      CopyRow(seq, *in.bg_seq);
      seq += in.bg_seq->size();
    }
    bg_encoder_.Infer(s.seq.data(), s.lengths, ctx);
  } else {
    std::fill(ctx, ctx + static_cast<std::size_t>(paths) * d, 0.0f);
  }

  // Head: one [paths, feat + d + spec] input, [fg | ctx | spec] per row.
  float* x = ml::GrowScratch(s.head_in, static_cast<std::size_t>(paths) * head_in);
  for (int p = 0; p < paths; ++p) {
    float* row = x + static_cast<std::size_t>(p) * head_in;
    CopyRow(row, *inputs[static_cast<std::size_t>(p)].fg_feat);
    std::memcpy(row + feat, ctx + static_cast<std::size_t>(p) * d, d * sizeof(float));
    CopyRow(row + feat + d, *inputs[static_cast<std::size_t>(p)].spec);
  }
  float* hidden = ml::GrowScratch(s.hidden, static_cast<std::size_t>(paths) * head_.hidden_features());
  head_.Infer(x, paths, hidden, raw);
  for (int p = 0; p < paths; ++p) {
    const ml::Tensor* baseline = inputs[static_cast<std::size_t>(p)].baseline;
    if (baseline == nullptr) continue;
    float* out = raw + static_cast<std::size_t>(p) * cfg_.out_dim;
    for (int j = 0; j < cfg_.out_dim; ++j) out[j] += baseline->data()[j];
  }
}

std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> M3Model::Predict(
    const ml::Tensor& fg_feat, const ml::Tensor& bg_seq, const ml::Tensor& spec,
    bool use_context, const ml::Tensor* baseline, int* num_nonfinite) const {
  const Input in{&fg_feat, &bg_seq, &spec, baseline};
  ml::Tensor raw(1, cfg_.out_dim);
  Infer({&in, 1}, use_context, raw.data());
  if (M3_FAULT_POINT_NAN("model/forward")) {
    // Fault injection: a poisoned forward pass, as a diverged or corrupted
    // model would produce. Callers must detect it via num_nonfinite.
    raw.Fill(std::numeric_limits<float>::quiet_NaN());
  }
  return DecodeOutput(raw, num_nonfinite);
}

std::vector<ml::Parameter*> M3Model::params() {
  std::vector<ml::Parameter*> out;
  bg_encoder_.CollectParams(out);
  head_.CollectParams(out);
  return out;
}

std::vector<const ml::Parameter*> M3Model::params() const {
  // CollectParams only hands out addresses; nothing here writes.
  const std::vector<ml::Parameter*> all = const_cast<M3Model*>(this)->params();
  return {all.begin(), all.end()};
}

std::size_t M3Model::num_parameters() const {
  std::size_t n = 0;
  for (const ml::Parameter* p : params()) n += p->value.size();
  return n;
}

void M3Model::Save(const std::string& path) { ml::SaveCheckpoint(path, params()); }
ml::CheckpointInfo M3Model::Load(const std::string& path) {
  return ml::LoadCheckpoint(path, params());
}

StatusOr<ml::CheckpointInfo> M3Model::TryLoad(const std::string& path) {
  try {
    return ml::LoadCheckpoint(path, params());
  } catch (const ml::CheckpointError& e) {
    return Status(e.code(), e.what()).Annotate("loading " + path);
  } catch (const std::exception& e) {
    return Status::Internal(e.what()).Annotate("loading " + path);
  }
}

}  // namespace m3
