// A small pre-norm transformer encoder (the structural equivalent of the
// paper's tiny Llama-2): learned positional embeddings, multi-head
// self-attention, GELU feed-forward, RMS norms, and mean pooling into a
// fixed-size context vector. Sequence length is the number of hops on a
// path (<= 8), so this is tiny and fast on CPU.
//
// Inference batches paths: Infer takes every path's hops stacked into one
// [sum of lengths, dim] row block, runs each projection, norm and
// activation once over all rows, and keeps only attention and mean pooling
// per path (block-diagonal). The kernels' row contract (kernels.h: row r
// of a GEMM depends only on row r of A) makes each path's rows bitwise
// equal to encoding that path alone on the graph.
#pragma once

#include <span>
#include <vector>

#include "ml/layers.h"

namespace m3::ml {

struct TransformerConfig {
  int input_dim = 1010;  // per-hop feature map (flattened) + counts
  int d_model = 96;
  int num_heads = 4;
  int num_layers = 2;
  int ff_dim = 192;
  int max_seq = 8;
};

class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(const std::string& name, const TransformerConfig& cfg, ParamSource& params);

  Var operator()(Graph& g, Var x);  // [n, d] -> [n, d]
  /// In place on x [sum of lengths, d]: consecutive runs of `lengths`
  /// rows are independent sequences (attention never crosses a run).
  void Infer(float* x, std::span<const int> lengths) const;
  void CollectParams(std::vector<Parameter*>& out);

 private:
  int d_model_ = 0;
  int num_heads_ = 0;
  RmsNormLayer norm1_;
  Linear wq_, wk_, wv_, wo_;
  RmsNormLayer norm2_;
  Linear ff1_, ff2_;
};

class TransformerEncoder {
 public:
  TransformerEncoder() = default;
  TransformerEncoder(const std::string& name, const TransformerConfig& cfg,
                     ParamSource& params);

  /// Encodes a [n, input_dim] sequence into a [1, d_model] context vector.
  /// n must be in [1, max_seq].
  Var Encode(Graph& g, const Tensor& sequence);

  /// Graph-free Encode of a batch: `sequences` holds the sequences'
  /// rows stacked ([sum of lengths, input_dim]); ctx[i, :] ([lengths.size(),
  /// d_model]) receives sequence i's context vector, bitwise equal to
  /// Encode of that sequence alone. Lengths must pass CheckSequence.
  void Infer(const float* sequences, std::span<const int> lengths, float* ctx) const;

  /// Throws the std::invalid_argument Encode throws for a [rows, cols]
  /// sequence it cannot encode (rows outside [1, max_seq], or cols other
  /// than input_dim).
  void CheckSequence(int rows, int cols) const;

  void CollectParams(std::vector<Parameter*>& out);
  const TransformerConfig& config() const { return cfg_; }

 private:
  TransformerConfig cfg_;
  Linear in_proj_;
  Parameter pos_emb_;  // [max_seq, d_model]
  std::vector<TransformerBlock> blocks_;
  RmsNormLayer final_norm_;
};

}  // namespace m3::ml
