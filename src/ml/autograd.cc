#include "ml/autograd.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/arena.h"
#include "ml/kernels.h"

namespace m3::ml {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch");
  }
}

// Tape tensors come from (and return to) the calling thread's arena, so
// steady-state training/inference on a thread performs no heap traffic
// for tape values, gradients, or saved activations.
Tensor ArenaZeros(int rows, int cols) {
  return TensorArena::ThreadLocal().GetZeros(rows, cols);
}

Tensor ArenaCopy(const Tensor& src) { return TensorArena::ThreadLocal().GetCopy(src); }

}  // namespace

Graph::~Graph() {
  TensorArena& arena = TensorArena::ThreadLocal();
  for (Node& n : nodes_) {
    arena.Put(std::move(n.val));
    arena.Put(std::move(n.grad));
    arena.Put(std::move(n.saved));
  }
}

Var Graph::Emit(Node node) {
  nodes_.push_back(std::move(node));
  return Var{static_cast<std::int32_t>(nodes_.size() - 1)};
}

Tensor& Graph::MutableGrad(std::int32_t id) {
  Node& n = nodes_[static_cast<std::size_t>(id)];
  if (n.op == Op::kParam) return ParamGradTarget(n);
  if (n.grad.empty()) {
    const Tensor& v = NodeValue(n);
    n.grad = ArenaZeros(v.rows(), v.cols());
  }
  return n.grad;
}

void Graph::AccumulateGrad(std::int32_t id, const Tensor& t) {
  Node& n = nodes_[static_cast<std::size_t>(id)];
  if (n.op == Op::kParam) {
    ParamGradTarget(n).AddInPlace(t);
    return;
  }
  // First touch copies instead of zero-filling then adding: the whole
  // tensor is overwritten either way.
  if (n.grad.empty()) {
    n.grad = ArenaCopy(t);
  } else {
    n.grad.AddInPlace(t);
  }
}

Var Graph::Input(const Tensor& value) {
  Node n;
  n.val = ArenaCopy(value);
  n.op = Op::kInput;
  return Emit(std::move(n));
}

Var Graph::Input(Tensor&& value) {
  Node n;
  n.val = std::move(value);
  n.op = Op::kInput;
  return Emit(std::move(n));
}

Var Graph::Param(Parameter* param) {
  Node n;
  n.ref = &param->value;  // aliased, not copied: ~40% of the old tape bytes
                          // were parameter copies (the param outlives the
                          // graph and is only updated between episodes)
  n.op = Op::kParam;
  n.param = param;
  return Emit(std::move(n));
}

Var Graph::MatMul(Var a, Var b) {
  const Tensor& A = value(a);
  const Tensor& B = value(b);
  if (A.cols() != B.rows()) throw std::invalid_argument("MatMul: inner dims differ");
  Tensor out = ArenaZeros(A.rows(), B.cols());
  kernels::GemmAccum(A.data(), B.data(), out.data(), A.rows(), A.cols(), B.cols());
  Node node;
  node.val = std::move(out);
  node.op = Op::kMatMul;
  node.in = {a.id, b.id};
  return Emit(std::move(node));
}

Var Graph::MatMulNT(Var a, Var b) {
  const Tensor& A = value(a);
  const Tensor& B = value(b);
  if (A.cols() != B.cols()) throw std::invalid_argument("MatMulNT: inner dims differ");
  Tensor out = ArenaZeros(A.rows(), B.rows());
  kernels::GemmAccumNT(A.data(), B.data(), out.data(), A.rows(), A.cols(), B.rows());
  Node node;
  node.val = std::move(out);
  node.op = Op::kMatMulNT;
  node.in = {a.id, b.id};
  return Emit(std::move(node));
}

Var Graph::Linear(Var x, Var w, Var b, Act act) {
  const Tensor& X = value(x);
  const Tensor& W = value(w);
  const Tensor& B = value(b);
  if (X.cols() != W.rows()) throw std::invalid_argument("Linear: inner dims differ");
  if (B.rows() != 1 || B.cols() != W.cols()) {
    throw std::invalid_argument("Linear: bias must be [1, out]");
  }
  const int m = X.rows(), k = X.cols(), n = W.cols();
  Tensor out = ArenaZeros(m, n);
  kernels::FillRowsWithBias(out.data(), B.data(), m, n);
  kernels::GemmAccum(X.data(), W.data(), out.data(), m, k, n);
  Node node;
  node.op = Op::kLinear;
  node.in = {x.id, w.id, b.id};
  node.aux = static_cast<int>(act);
  if (act == Act::kNone) {
    node.val = std::move(out);
  } else {
    // Keep the pre-activation for the backward pass; activate into a
    // fresh tape tensor.
    Tensor activated = ArenaZeros(m, n);
    if (act == Act::kRelu) {
      kernels::ReluForward(activated.data(), out.data(), out.size());
    } else {
      kernels::GeluForward(activated.data(), out.data(), out.size());
    }
    node.saved = std::move(out);
    node.val = std::move(activated);
  }
  return Emit(std::move(node));
}

Var Graph::Add(Var a, Var b) {
  const Tensor& A = value(a);
  const Tensor& B = value(b);
  Node node;
  if (B.rows() == 1 && A.rows() != 1 && B.cols() == A.cols()) {
    Tensor out = ArenaZeros(A.rows(), A.cols());
    kernels::BiasAddRows(out.data(), A.data(), B.data(), A.rows(), A.cols());
    node.val = std::move(out);
    node.op = Op::kAddBroadcast;
  } else {
    CheckSameShape(A, B, "Add");
    Tensor out = ArenaCopy(A);
    out.AddInPlace(B);
    node.val = std::move(out);
    node.op = Op::kAdd;
  }
  node.in = {a.id, b.id};
  return Emit(std::move(node));
}

Var Graph::Sub(Var a, Var b) {
  const Tensor& A = value(a);
  const Tensor& B = value(b);
  CheckSameShape(A, B, "Sub");
  Tensor out = ArenaCopy(A);
  kernels::AxpyAccum(out.data(), B.data(), -1.0f, out.size());
  Node node;
  node.val = std::move(out);
  node.op = Op::kSub;
  node.in = {a.id, b.id};
  return Emit(std::move(node));
}

Var Graph::Mul(Var a, Var b) {
  const Tensor& A = value(a);
  const Tensor& B = value(b);
  CheckSameShape(A, B, "Mul");
  Tensor out = ArenaCopy(A);
  for (std::size_t i = 0; i < out.size(); ++i) out.vec()[i] *= B.vec()[i];
  Node node;
  node.val = std::move(out);
  node.op = Op::kMul;
  node.in = {a.id, b.id};
  return Emit(std::move(node));
}

Var Graph::Scale(Var a, float s) {
  Tensor out = ArenaCopy(value(a));
  kernels::ScaleInPlace(out.data(), s, out.size());
  Node node;
  node.val = std::move(out);
  node.op = Op::kScale;
  node.in = {a.id};
  node.scalar = s;
  return Emit(std::move(node));
}

Var Graph::Relu(Var a) {
  const Tensor& A = value(a);
  Tensor out = ArenaZeros(A.rows(), A.cols());
  kernels::ReluForward(out.data(), A.data(), A.size());
  Node node;
  node.val = std::move(out);
  node.op = Op::kRelu;
  node.in = {a.id};
  return Emit(std::move(node));
}

Var Graph::Gelu(Var a) {
  const Tensor& A = value(a);
  Tensor out = ArenaZeros(A.rows(), A.cols());
  kernels::GeluForward(out.data(), A.data(), A.size());
  Node node;
  node.val = std::move(out);
  node.op = Op::kGelu;
  node.in = {a.id};
  return Emit(std::move(node));
}

Var Graph::Tanh(Var a) {
  Tensor out = ArenaCopy(value(a));
  for (float& v : out.vec()) v = std::tanh(v);
  Node node;
  node.val = std::move(out);
  node.op = Op::kTanh;
  node.in = {a.id};
  return Emit(std::move(node));
}

Var Graph::Softmax(Var a) {
  Tensor out = ArenaCopy(value(a));
  kernels::SoftmaxRows(out.data(), out.rows(), out.cols());
  Node node;
  node.val = std::move(out);
  node.op = Op::kSoftmax;
  node.in = {a.id};
  return Emit(std::move(node));
}

Var Graph::SoftmaxScaled(Var a, float scale) {
  Tensor out = ArenaCopy(value(a));
  kernels::SoftmaxScaledRows(out.data(), out.rows(), out.cols(), scale);
  Node node;
  node.val = std::move(out);
  node.op = Op::kScaledSoftmax;
  node.in = {a.id};
  node.scalar = scale;
  return Emit(std::move(node));
}

Var Graph::Transpose(Var a) {
  const Tensor& A = value(a);
  Tensor out = ArenaZeros(A.cols(), A.rows());
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) out.at(j, i) = A.at(i, j);
  }
  Node node;
  node.val = std::move(out);
  node.op = Op::kTranspose;
  node.in = {a.id};
  return Emit(std::move(node));
}

Var Graph::RmsNorm(Var x, Var gain) {
  const Tensor& X = value(x);
  const Tensor& G = value(gain);
  if (G.rows() != 1 || G.cols() != X.cols()) {
    throw std::invalid_argument("RmsNorm: gain must be [1, cols]");
  }
  Tensor out = ArenaZeros(X.rows(), X.cols());
  Tensor inv_r = ArenaZeros(1, X.rows());
  kernels::RmsNormForward(out.data(), inv_r.data(), X.data(), G.data(), X.rows(),
                          X.cols(), kRmsNormEps);
  Node node;
  node.val = std::move(out);
  node.saved = std::move(inv_r);  // per-row 1/rms, reused by the backward pass
  node.op = Op::kRmsNorm;
  node.in = {x.id, gain.id};
  return Emit(std::move(node));
}

Var Graph::ConcatCols(const std::vector<Var>& xs) {
  if (xs.empty()) throw std::invalid_argument("ConcatCols: empty input");
  const int rows = value(xs[0]).rows();
  int cols = 0;
  for (Var v : xs) {
    if (value(v).rows() != rows) throw std::invalid_argument("ConcatCols: row mismatch");
    cols += value(v).cols();
  }
  Tensor out = ArenaZeros(rows, cols);
  int off = 0;
  for (Var v : xs) {
    const Tensor& X = value(v);
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < X.cols(); ++j) out.at(i, off + j) = X.at(i, j);
    }
    off += X.cols();
  }
  Node node;
  node.val = std::move(out);
  node.op = Op::kConcatCols;
  for (Var v : xs) node.in.push_back(v.id);
  return Emit(std::move(node));
}

Var Graph::SliceCols(Var a, int start, int len) {
  const Tensor& A = value(a);
  if (start < 0 || len <= 0 || start + len > A.cols()) {
    throw std::invalid_argument("SliceCols: out of range");
  }
  Tensor out = ArenaZeros(A.rows(), len);
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < len; ++j) out.at(i, j) = A.at(i, start + j);
  }
  Node node;
  node.val = std::move(out);
  node.op = Op::kSliceCols;
  node.in = {a.id};
  node.scalar = static_cast<float>(start);
  node.aux = len;
  return Emit(std::move(node));
}

Var Graph::SliceRows(Var a, int start, int len) {
  const Tensor& A = value(a);
  if (start < 0 || len <= 0 || start + len > A.rows()) {
    throw std::invalid_argument("SliceRows: out of range");
  }
  Tensor out = ArenaZeros(len, A.cols());
  std::memcpy(out.data(),
              A.data() + static_cast<std::size_t>(start) * A.cols(),
              static_cast<std::size_t>(len) * A.cols() * sizeof(float));
  Node node;
  node.val = std::move(out);
  node.op = Op::kSliceRows;
  node.in = {a.id};
  node.scalar = static_cast<float>(start);
  node.aux = len;
  return Emit(std::move(node));
}

Var Graph::MeanRows(Var a) {
  const Tensor& A = value(a);
  Tensor out = ArenaZeros(1, A.cols());
  kernels::ColSumAccum(out.data(), A.data(), A.rows(), A.cols());
  for (float& v : out.vec()) v /= static_cast<float>(A.rows());
  Node node;
  node.val = std::move(out);
  node.op = Op::kMeanRows;
  node.in = {a.id};
  return Emit(std::move(node));
}

Var Graph::L1Loss(Var pred, Var target, Var mask) {
  const Tensor& P = value(pred);
  const Tensor& T = value(target);
  const Tensor& M = value(mask);
  CheckSameShape(P, T, "L1Loss");
  CheckSameShape(P, M, "L1Loss(mask)");
  float count = 0.0f;
  float total = 0.0f;
  for (std::size_t i = 0; i < P.size(); ++i) {
    total += std::abs(P.vec()[i] - T.vec()[i]) * M.vec()[i];
    count += M.vec()[i];
  }
  Tensor out(1, 1);
  out.at(0, 0) = total / std::max(count, 1.0f);
  Node node;
  node.val = std::move(out);
  node.op = Op::kL1Loss;
  node.in = {pred.id, target.id, mask.id};
  node.scalar = std::max(count, 1.0f);
  return Emit(std::move(node));
}

Var Graph::MseLoss(Var pred, Var target, Var mask) {
  const Tensor& P = value(pred);
  const Tensor& T = value(target);
  const Tensor& M = value(mask);
  CheckSameShape(P, T, "MseLoss");
  CheckSameShape(P, M, "MseLoss(mask)");
  float count = 0.0f;
  float total = 0.0f;
  for (std::size_t i = 0; i < P.size(); ++i) {
    const float d = P.vec()[i] - T.vec()[i];
    total += d * d * M.vec()[i];
    count += M.vec()[i];
  }
  Tensor out(1, 1);
  out.at(0, 0) = total / std::max(count, 1.0f);
  Node node;
  node.val = std::move(out);
  node.op = Op::kMseLoss;
  node.in = {pred.id, target.id, mask.id};
  node.scalar = std::max(count, 1.0f);
  return Emit(std::move(node));
}

void Graph::Backward(Var loss) {
  if (backward_done_) throw std::logic_error("Graph::Backward called twice");
  backward_done_ = true;
  const Tensor& L = value(loss);
  if (L.rows() != 1 || L.cols() != 1) {
    throw std::invalid_argument("Backward: loss must be scalar [1,1]");
  }
  {
    Tensor seed(1, 1);
    seed.at(0, 0) = 1.0f;
    AccumulateGrad(loss.id, seed);
  }

  for (std::int32_t id = static_cast<std::int32_t>(nodes_.size()) - 1; id >= 0; --id) {
    Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.grad.empty()) continue;  // no gradient flowed here
    const Tensor& go = n.grad;
    switch (n.op) {
      case Op::kInput:
        break;
      case Op::kParam:
        break;  // gradient already accumulated directly via ParamGradTarget
      case Op::kMatMul: {
        const Tensor& A = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& B = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        Tensor& ga = MutableGrad(n.in[0]);
        Tensor& gb = MutableGrad(n.in[1]);
        const int m = A.rows(), k = A.cols(), c = B.cols();
        kernels::GemmAccumNT(go.data(), B.data(), ga.data(), m, c, k);
        kernels::GemmAccumTN(A.data(), go.data(), gb.data(), m, k, c);
        break;
      }
      case Op::kMatMulNT: {
        // out = A * B^T with A [m,k], B [c,k]:
        //   dA += go * B   (plain GEMM), dB += go^T * A (TN GEMM).
        const Tensor& A = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& B = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        Tensor& ga = MutableGrad(n.in[0]);
        Tensor& gb = MutableGrad(n.in[1]);
        const int m = A.rows(), k = A.cols(), c = B.rows();
        kernels::GemmAccum(go.data(), B.data(), ga.data(), m, c, k);
        kernels::GemmAccumTN(go.data(), A.data(), gb.data(), m, c, k);
        break;
      }
      case Op::kLinear: {
        const Tensor& X = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& W = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        Tensor& gx = MutableGrad(n.in[0]);
        Tensor& gw = MutableGrad(n.in[1]);
        Tensor& gb = MutableGrad(n.in[2]);
        const int m = X.rows(), k = X.cols(), c = W.cols();
        const Act act = static_cast<Act>(n.aux);
        const float* d = go.data();
        if (act != Act::kNone) {
          // d = f'(pre) * go, overwriting the saved pre-activation in
          // place (strictly elementwise: saved[i] is read before written).
          float* pre = n.saved.data();
          if (act == Act::kRelu) {
            kernels::ReluBackwardInto(pre, go.data(), pre, go.size());
          } else {
            kernels::GeluBackwardInto(pre, go.data(), pre, go.size());
          }
          d = pre;
        }
        kernels::GemmAccumNT(d, W.data(), gx.data(), m, c, k);
        kernels::GemmAccumTN(X.data(), d, gw.data(), m, k, c);
        kernels::ColSumAccum(gb.data(), d, m, c);
        break;
      }
      case Op::kAdd: {
        AccumulateGrad(n.in[0], go);
        AccumulateGrad(n.in[1], go);
        break;
      }
      case Op::kAddBroadcast: {
        AccumulateGrad(n.in[0], go);
        Tensor& gb = MutableGrad(n.in[1]);
        kernels::ColSumAccum(gb.data(), go.data(), go.rows(), go.cols());
        break;
      }
      case Op::kSub: {
        AccumulateGrad(n.in[0], go);
        Tensor& gb = MutableGrad(n.in[1]);
        kernels::AxpyAccum(gb.data(), go.data(), -1.0f, go.size());
        break;
      }
      case Op::kMul: {
        const Tensor& A = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& B = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        Tensor& ga = MutableGrad(n.in[0]);
        Tensor& gb = MutableGrad(n.in[1]);
        for (std::size_t i = 0; i < go.size(); ++i) {
          ga.vec()[i] += go.vec()[i] * B.vec()[i];
          gb.vec()[i] += go.vec()[i] * A.vec()[i];
        }
        break;
      }
      case Op::kScale: {
        Tensor& ga = MutableGrad(n.in[0]);
        kernels::AxpyAccum(ga.data(), go.data(), n.scalar, go.size());
        break;
      }
      case Op::kRelu: {
        const Tensor& X = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        Tensor& ga = MutableGrad(n.in[0]);
        kernels::ReluBackwardAccum(ga.data(), go.data(), X.data(), go.size());
        break;
      }
      case Op::kGelu: {
        const Tensor& X = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        Tensor& ga = MutableGrad(n.in[0]);
        kernels::GeluBackwardAccum(ga.data(), go.data(), X.data(), go.size());
        break;
      }
      case Op::kTanh: {
        Tensor& ga = MutableGrad(n.in[0]);
        for (std::size_t i = 0; i < go.size(); ++i) {
          const float y = n.val.vec()[i];
          ga.vec()[i] += go.vec()[i] * (1.0f - y * y);
        }
        break;
      }
      case Op::kSoftmax: {
        Tensor& ga = MutableGrad(n.in[0]);
        kernels::SoftmaxBackwardAccum(ga.data(), go.data(), n.val.data(), n.val.rows(),
                                      n.val.cols());
        break;
      }
      case Op::kScaledSoftmax: {
        Tensor& ga = MutableGrad(n.in[0]);
        kernels::SoftmaxScaledBackwardAccum(ga.data(), go.data(), n.val.data(),
                                            n.val.rows(), n.val.cols(), n.scalar);
        break;
      }
      case Op::kTranspose: {
        Tensor& ga = MutableGrad(n.in[0]);
        for (int i = 0; i < go.rows(); ++i) {
          for (int j = 0; j < go.cols(); ++j) ga.at(j, i) += go.at(i, j);
        }
        break;
      }
      case Op::kRmsNorm: {
        const Tensor& X = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& G = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        Tensor& gx = MutableGrad(n.in[0]);
        Tensor& gg = MutableGrad(n.in[1]);
        kernels::RmsNormBackwardAccum(gx.data(), gg.data(), go.data(), X.data(),
                                      G.data(), n.saved.data(), X.rows(), X.cols());
        break;
      }
      case Op::kConcatCols: {
        int off = 0;
        for (std::int32_t in_id : n.in) {
          Tensor& g = MutableGrad(in_id);
          for (int i = 0; i < g.rows(); ++i) {
            for (int j = 0; j < g.cols(); ++j) g.at(i, j) += go.at(i, off + j);
          }
          off += g.cols();
        }
        break;
      }
      case Op::kSliceCols: {
        Tensor& ga = MutableGrad(n.in[0]);
        const int start = static_cast<int>(n.scalar);
        for (int i = 0; i < go.rows(); ++i) {
          for (int j = 0; j < go.cols(); ++j) ga.at(i, start + j) += go.at(i, j);
        }
        break;
      }
      case Op::kSliceRows: {
        Tensor& ga = MutableGrad(n.in[0]);
        const int start = static_cast<int>(n.scalar);
        kernels::AxpyAccum(ga.data() + static_cast<std::size_t>(start) * ga.cols(),
                           go.data(), 1.0f, go.size());
        break;
      }
      case Op::kMeanRows: {
        Tensor& ga = MutableGrad(n.in[0]);
        const float inv = 1.0f / static_cast<float>(ga.rows());
        for (int i = 0; i < ga.rows(); ++i) {
          for (int j = 0; j < ga.cols(); ++j) ga.at(i, j) += go.at(0, j) * inv;
        }
        break;
      }
      case Op::kL1Loss: {
        const Tensor& P = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& T = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        const Tensor& M = NodeValue(nodes_[static_cast<std::size_t>(n.in[2])]);
        Tensor& gp = MutableGrad(n.in[0]);
        const float g = go.at(0, 0) / n.scalar;
        for (std::size_t i = 0; i < P.size(); ++i) {
          const float d = P.vec()[i] - T.vec()[i];
          gp.vec()[i] += g * M.vec()[i] * (d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f));
        }
        break;
      }
      case Op::kMseLoss: {
        const Tensor& P = NodeValue(nodes_[static_cast<std::size_t>(n.in[0])]);
        const Tensor& T = NodeValue(nodes_[static_cast<std::size_t>(n.in[1])]);
        const Tensor& M = NodeValue(nodes_[static_cast<std::size_t>(n.in[2])]);
        Tensor& gp = MutableGrad(n.in[0]);
        const float g = go.at(0, 0) / n.scalar;
        for (std::size_t i = 0; i < P.size(); ++i) {
          gp.vec()[i] += g * M.vec()[i] * 2.0f * (P.vec()[i] - T.vec()[i]);
        }
        break;
      }
    }
  }
}

}  // namespace m3::ml
