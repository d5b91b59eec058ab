// Trainable layers built on the autograd graph.
//
// Each layer has one constructor, which takes its parameters from a
// ParamSource (ml/tensor.h): RandomParams for a fresh model, or a parsed
// checkpoint (ml::CheckpointParams) for a served one, so a loaded model is
// never random-initialized first.
//
// Each layer also has a graph-free inference method, Infer, next to its
// graph operator(): it takes plain row-major input rows and writes output
// rows, calling exactly the kernels:: functions the graph ops call, in the
// same order, so for every kernel implementation row r of the output is
// bitwise equal to the graph's value for that row alone. No tape, no arena
// copies, no gradients; the parameters are only read, so Infer is const and
// safe to call from many threads at once.
#pragma once

#include <string>
#include <vector>

#include "ml/autograd.h"
#include "ml/tensor.h"

namespace m3::ml {

/// y = act(x W + b), with Kaiming-ish init (stddev = 1/sqrt(in), zero
/// bias). The whole layer is one fused tape op (Graph::Linear), including
/// the optional activation.
class Linear {
 public:
  Linear() = default;
  Linear(const std::string& name, int in, int out, ParamSource& params);

  Var operator()(Graph& g, Var x, Act act = Act::kNone);
  /// out[rows, out_features] = act(x[rows, in_features] W + b). `out` must
  /// not overlap `x`.
  void Infer(const float* x, int rows, float* out, Act act = Act::kNone) const;
  void CollectParams(std::vector<Parameter*>& out);

  int in_features() const { return w_.value.rows(); }
  int out_features() const { return w_.value.cols(); }

 private:
  Parameter w_;  // [in, out]
  Parameter b_;  // [1, out]
};

/// Row-wise RMS norm with a learned gain (Llama-style), initially 1.
class RmsNormLayer {
 public:
  RmsNormLayer() = default;
  RmsNormLayer(const std::string& name, int dim, ParamSource& params);

  Var operator()(Graph& g, Var x);
  /// out[rows, dim] = the norm of x[rows, dim]; `inv_r` ([rows]) receives
  /// each row's 1/rms. `out` must not overlap `x`.
  void Infer(const float* x, int rows, float* out, float* inv_r) const;
  void CollectParams(std::vector<Parameter*>& out);

 private:
  Parameter gain_;  // [1, dim]
};

/// Two-layer MLP: in -> hidden (ReLU) -> out.
class Mlp {
 public:
  Mlp() = default;
  Mlp(const std::string& name, int in, int hidden, int out, ParamSource& params);

  Var operator()(Graph& g, Var x);
  /// out[rows, out] = fc2(relu(fc1(x))), with `hidden` ([rows, hidden])
  /// as scratch for the ReLU activations.
  void Infer(const float* x, int rows, float* hidden, float* out) const;
  void CollectParams(std::vector<Parameter*>& out);

  int in_features() const { return fc1_.in_features(); }
  int hidden_features() const { return fc1_.out_features(); }
  int out_features() const { return fc2_.out_features(); }

 private:
  Linear fc1_;
  Linear fc2_;
};

}  // namespace m3::ml
