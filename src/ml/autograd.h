// Tape-based reverse-mode automatic differentiation over Tensor.
//
// A Graph is a single forward episode: operations execute eagerly and are
// recorded on a tape; Backward() walks the tape in reverse, accumulating
// gradients into each node and into the bound Parameters. Graphs are cheap
// to construct and are discarded after each step.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ml/tensor.h"

namespace m3::ml {

/// Handle to a node in a Graph.
struct Var {
  std::int32_t id = -1;
};

/// Epsilon of the row-wise RMS norm (Graph::RmsNorm and the graph-free
/// RmsNormLayer::Infer).
inline constexpr float kRmsNormEps = 1e-6f;

/// Activation fused into Graph::Linear.
enum class Act : std::uint8_t { kNone, kRelu, kGelu };

class Graph {
 public:
  Graph() = default;
  /// Returns every tape tensor to the thread-local TensorArena, so the
  /// next Graph built on this thread reuses the buffers instead of
  /// re-allocating them.
  ~Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Pre-sizes the tape for a forward episode (avoids vector regrowth;
  /// call before the first op with an upper bound on the node count).
  void Reserve(std::size_t nodes) { nodes_.reserve(nodes); }

  /// Redirects parameter-gradient accumulation: when set, Backward()
  /// accumulates into sink(param) instead of param.grad. Used for
  /// per-thread gradient buffers in data-parallel training; the returned
  /// tensor must have the parameter's shape and outlive Backward().
  void set_param_grad_sink(std::function<Tensor&(Parameter&)> sink) {
    param_grad_sink_ = std::move(sink);
  }

  /// Leaf holding a constant (no gradient flows out of the graph). The
  /// lvalue form copies through the thread-local arena; the rvalue form
  /// adopts the tensor.
  Var Input(const Tensor& value);
  Var Input(Tensor&& value);

  /// Leaf bound to a trainable parameter; Backward() accumulates into
  /// param->grad. The parameter must outlive the graph.
  Var Param(Parameter* param);

  // ----- operations (shapes checked; throws std::invalid_argument) -----
  Var MatMul(Var a, Var b);             // [m,k] x [k,n] -> [m,n]
  Var MatMulNT(Var a, Var b);           // [m,k] x [n,k]^T -> [m,n]; no Transpose tape node
  /// Fused x*W + b with optional activation: one op instead of the
  /// MatMul -> Add(broadcast) -> Relu/Gelu chain (no intermediate value or
  /// gradient tensors; the backward feeds the activation gradient straight
  /// into the three GEMM/reduction accumulations).
  Var Linear(Var x, Var w, Var b, Act act = Act::kNone);
  Var Add(Var a, Var b);                // same shape, or b = [1,n] broadcast over rows
  Var Sub(Var a, Var b);                // same shape
  Var Mul(Var a, Var b);                // elementwise, same shape
  Var Scale(Var a, float s);
  Var Relu(Var a);
  Var Gelu(Var a);                      // SiLU-style approximation x*sigmoid(1.702x)
  Var Tanh(Var a);
  Var Softmax(Var a);                   // row-wise
  Var SoftmaxScaled(Var a, float scale);  // row-wise softmax(scale*a), fused
  Var Transpose(Var a);
  Var RmsNorm(Var x, Var gain);         // row-wise RMS norm; gain [1,n]
  Var ConcatCols(const std::vector<Var>& xs);  // all [m, *]
  Var SliceCols(Var a, int start, int len);
  Var SliceRows(Var a, int start, int len);  // contiguous row slice (memcpy)
  Var MeanRows(Var a);                  // [m,n] -> [1,n]
  Var L1Loss(Var pred, Var target, Var mask);  // -> [1,1]; mask in {0,1}
  Var MseLoss(Var pred, Var target, Var mask); // -> [1,1]

  const Tensor& value(Var v) const { return NodeValue(nodes_[static_cast<std::size_t>(v.id)]); }
  const Tensor& grad(Var v) const { return nodes_[static_cast<std::size_t>(v.id)].grad; }

  /// Seeds d(loss)=1 and back-propagates through the tape. `loss` must be
  /// a [1,1] node. May be called once per graph.
  void Backward(Var loss);

  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  enum class Op : std::uint8_t {
    kInput, kParam, kMatMul, kMatMulNT, kLinear, kAdd, kAddBroadcast, kSub,
    kMul, kScale, kRelu, kGelu, kTanh, kSoftmax, kScaledSoftmax, kTranspose,
    kRmsNorm, kConcatCols, kSliceCols, kSliceRows, kMeanRows, kL1Loss,
    kMseLoss,
  };

  struct Node {
    Tensor val;                // owned value (empty for kParam: see `ref`)
    const Tensor* ref = nullptr;  // kParam aliases param->value instead of copying
    Tensor grad;  // allocated lazily in Backward (unused for kParam, whose
                  // gradient goes straight to the parameter / sink buffer)
    Tensor saved;  // extra forward state for fused backward passes:
                   // pre-activation for kLinear, per-row 1/rms for kRmsNorm
    Op op = Op::kInput;
    std::vector<std::int32_t> in;
    Parameter* param = nullptr;
    float scalar = 0.0f;  // Scale/softmax factor / slice start (reused)
    int aux = 0;          // slice length / Act of kLinear
  };

  static const Tensor& NodeValue(const Node& n) { return n.ref ? *n.ref : n.val; }

  Var Emit(Node node);
  /// Gradient buffer for the node: param nodes resolve to the parameter's
  /// grad (or the sink buffer), so GEMM backward accumulates there
  /// directly with no intermediate per-node tensor.
  Tensor& MutableGrad(std::int32_t id);
  void AccumulateGrad(std::int32_t id, const Tensor& t);
  Tensor& ParamGradTarget(Node& n) {
    if (param_grad_sink_) return param_grad_sink_(*n.param);
    if (n.param->grad.empty()) n.param->ZeroGrad();
    return n.param->grad;
  }

  std::vector<Node> nodes_;
  std::function<Tensor&(Parameter&)> param_grad_sink_;
  bool backward_done_ = false;
};

}  // namespace m3::ml
