#include "ml/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/kernels.h"

namespace m3::ml {
namespace {

// Per-thread scratch for Infer, grown to the largest batch seen on the
// thread and reused by every later call (no allocation in steady state;
// M3Model::Infer bounds the batch to one pass of hop rows).
struct InferScratch {
  FloatVec x, h, q, k, v, heads, proj, ff, inv_r, pooled;  // batch rows
  FloatVec qh, kh, vh, scores, head_out;                  // one sequence, one head
};

InferScratch& Scratch() {
  thread_local InferScratch scratch;
  return scratch;
}

int TotalRows(std::span<const int> lengths) {
  int rows = 0;
  for (int n : lengths) rows += n;
  return rows;
}

// Copies columns [col, col + len) of rows [0, n) of `src` (row stride
// `stride`) into the contiguous [n, len] block `dst`, or back.
void CopyCols(float* dst, const float* src, int n, int len, int col, int stride) {
  for (int r = 0; r < n; ++r) {
    std::memcpy(dst + static_cast<std::size_t>(r) * len,
                src + static_cast<std::size_t>(r) * stride + col, len * sizeof(float));
  }
}
void PasteCols(float* dst, const float* src, int n, int len, int col, int stride) {
  for (int r = 0; r < n; ++r) {
    std::memcpy(dst + static_cast<std::size_t>(r) * stride + col,
                src + static_cast<std::size_t>(r) * len, len * sizeof(float));
  }
}

}  // namespace

TransformerBlock::TransformerBlock(const std::string& name, const TransformerConfig& cfg,
                                   ParamSource& params)
    : d_model_(cfg.d_model),
      num_heads_(cfg.num_heads),
      norm1_(name + ".norm1", cfg.d_model, params),
      wq_(name + ".wq", cfg.d_model, cfg.d_model, params),
      wk_(name + ".wk", cfg.d_model, cfg.d_model, params),
      wv_(name + ".wv", cfg.d_model, cfg.d_model, params),
      wo_(name + ".wo", cfg.d_model, cfg.d_model, params),
      norm2_(name + ".norm2", cfg.d_model, params),
      ff1_(name + ".ff1", cfg.d_model, cfg.ff_dim, params),
      ff2_(name + ".ff2", cfg.ff_dim, cfg.d_model, params) {
  if (cfg.d_model % cfg.num_heads != 0) {
    throw std::invalid_argument("d_model must be divisible by num_heads");
  }
}

Var TransformerBlock::operator()(Graph& g, Var x) {
  // Pre-norm multi-head self-attention with residual.
  Var h = norm1_(g, x);
  Var q = wq_(g, h);
  Var k = wk_(g, h);
  Var v = wv_(g, h);
  const int dh = d_model_ / num_heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  std::vector<Var> heads;
  heads.reserve(static_cast<std::size_t>(num_heads_));
  for (int head = 0; head < num_heads_; ++head) {
    Var qh = g.SliceCols(q, head * dh, dh);
    Var kh = g.SliceCols(k, head * dh, dh);
    Var vh = g.SliceCols(v, head * dh, dh);
    // q·k^T with no Transpose node, scale folded into the softmax pass.
    Var attn = g.SoftmaxScaled(g.MatMulNT(qh, kh), scale);
    heads.push_back(g.MatMul(attn, vh));
  }
  Var attn_out = wo_(g, g.ConcatCols(heads));
  Var x1 = g.Add(x, attn_out);

  // Pre-norm feed-forward with residual (GELU fused into ff1).
  Var ff = ff2_(g, ff1_(g, norm2_(g, x1), Act::kGelu));
  return g.Add(x1, ff);
}

void TransformerBlock::Infer(float* x, std::span<const int> lengths) const {
  InferScratch& s = Scratch();
  const int d = d_model_;
  const int rows = TotalRows(lengths);
  const std::size_t size = static_cast<std::size_t>(rows) * static_cast<std::size_t>(d);
  float* h = GrowScratch(s.h, size);
  float* inv_r = GrowScratch(s.inv_r, static_cast<std::size_t>(rows));
  float* q = GrowScratch(s.q, size);
  float* k = GrowScratch(s.k, size);
  float* v = GrowScratch(s.v, size);
  float* heads = GrowScratch(s.heads, size);
  float* proj = GrowScratch(s.proj, size);
  float* ff = GrowScratch(s.ff, static_cast<std::size_t>(rows) * ff1_.out_features());

  // Pre-norm multi-head self-attention with residual; the projections run
  // once over every sequence's rows.
  norm1_.Infer(x, rows, h, inv_r);
  wq_.Infer(h, rows, q);
  wk_.Infer(h, rows, k);
  wv_.Infer(h, rows, v);
  const int dh = d / num_heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  std::size_t r0 = 0;
  for (int n : lengths) {
    const std::size_t off = r0 * static_cast<std::size_t>(d);
    const std::size_t nh = static_cast<std::size_t>(n) * dh;
    float* qh = GrowScratch(s.qh, nh);
    float* kh = GrowScratch(s.kh, nh);
    float* vh = GrowScratch(s.vh, nh);
    float* scores = GrowScratch(s.scores, static_cast<std::size_t>(n) * n);
    float* head_out = GrowScratch(s.head_out, nh);
    for (int head = 0; head < num_heads_; ++head) {
      CopyCols(qh, q + off, n, dh, head * dh, d);
      CopyCols(kh, k + off, n, dh, head * dh, d);
      CopyCols(vh, v + off, n, dh, head * dh, d);
      std::fill(scores, scores + static_cast<std::size_t>(n) * n, 0.0f);
      kernels::GemmAccumNT(qh, kh, scores, n, dh, n);
      kernels::SoftmaxScaledRows(scores, n, n, scale);
      std::fill(head_out, head_out + nh, 0.0f);
      kernels::GemmAccum(scores, vh, head_out, n, n, dh);
      PasteCols(heads + off, head_out, n, dh, head * dh, d);
    }
    r0 += static_cast<std::size_t>(n);
  }
  wo_.Infer(heads, rows, proj);
  for (std::size_t i = 0; i < size; ++i) x[i] += proj[i];

  // Pre-norm feed-forward with residual (GELU fused into ff1).
  norm2_.Infer(x, rows, h, inv_r);
  ff1_.Infer(h, rows, ff, Act::kGelu);
  ff2_.Infer(ff, rows, proj);
  for (std::size_t i = 0; i < size; ++i) x[i] += proj[i];
}

void TransformerBlock::CollectParams(std::vector<Parameter*>& out) {
  norm1_.CollectParams(out);
  wq_.CollectParams(out);
  wk_.CollectParams(out);
  wv_.CollectParams(out);
  wo_.CollectParams(out);
  norm2_.CollectParams(out);
  ff1_.CollectParams(out);
  ff2_.CollectParams(out);
}

TransformerEncoder::TransformerEncoder(const std::string& name, const TransformerConfig& cfg,
                                       ParamSource& params)
    : cfg_(cfg),
      in_proj_(name + ".in_proj", cfg.input_dim, cfg.d_model, params),
      pos_emb_(params.Take(name + ".pos_emb", cfg.max_seq, cfg.d_model, {.stddev = 0.02f})) {
  // final_norm_ is built last so tensors are taken in CollectParams order.
  blocks_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (int i = 0; i < cfg.num_layers; ++i) {
    blocks_.emplace_back(name + ".block" + std::to_string(i), cfg, params);
  }
  final_norm_ = RmsNormLayer(name + ".final_norm", cfg.d_model, params);
}

void TransformerEncoder::CheckSequence(int rows, int cols) const {
  if (rows < 1 || rows > cfg_.max_seq || cols != cfg_.input_dim) {
    throw std::invalid_argument("TransformerEncoder: bad sequence shape");
  }
}

Var TransformerEncoder::Encode(Graph& g, const Tensor& sequence) {
  const int n = sequence.rows();
  CheckSequence(n, sequence.cols());
  Var x = in_proj_(g, g.Input(sequence));
  // Add the first n rows of the positional embedding (a direct row slice;
  // the old Transpose -> SliceCols -> Transpose chain materialized the
  // full embedding twice per episode).
  x = g.Add(x, g.SliceRows(g.Param(&pos_emb_), 0, n));
  for (auto& block : blocks_) x = block(g, x);
  return final_norm_(g, g.MeanRows(x));
}

void TransformerEncoder::Infer(const float* sequences, std::span<const int> lengths,
                               float* ctx) const {
  for (int n : lengths) CheckSequence(n, cfg_.input_dim);
  InferScratch& s = Scratch();
  const int d = cfg_.d_model;
  const int rows = TotalRows(lengths);
  float* x = GrowScratch(s.x, static_cast<std::size_t>(rows) * d);
  in_proj_.Infer(sequences, rows, x);
  // Positional embedding rows 0..n-1 of each sequence.
  std::size_t r0 = 0;
  for (int n : lengths) {
    float* xs = x + r0 * static_cast<std::size_t>(d);
    const std::size_t len = static_cast<std::size_t>(n) * d;
    for (std::size_t i = 0; i < len; ++i) xs[i] += pos_emb_.value.data()[i];
    r0 += static_cast<std::size_t>(n);
  }
  for (const TransformerBlock& block : blocks_) block.Infer(x, lengths);

  // Mean-pool each sequence, then one norm over all pooled rows.
  const int count = static_cast<int>(lengths.size());
  float* pooled = GrowScratch(s.pooled, static_cast<std::size_t>(count) * d);
  std::fill(pooled, pooled + static_cast<std::size_t>(count) * d, 0.0f);
  r0 = 0;
  for (int i = 0; i < count; ++i) {
    const int n = lengths[static_cast<std::size_t>(i)];
    float* row = pooled + static_cast<std::size_t>(i) * d;
    kernels::ColSumAccum(row, x + r0 * static_cast<std::size_t>(d), n, d);
    for (int j = 0; j < d; ++j) row[j] /= static_cast<float>(n);
    r0 += static_cast<std::size_t>(n);
  }
  final_norm_.Infer(pooled, count, ctx, GrowScratch(s.inv_r, static_cast<std::size_t>(count)));
}

void TransformerEncoder::CollectParams(std::vector<Parameter*>& out) {
  in_proj_.CollectParams(out);
  out.push_back(&pos_emb_);
  for (auto& block : blocks_) block.CollectParams(out);
  final_norm_.CollectParams(out);
}

}  // namespace m3::ml
