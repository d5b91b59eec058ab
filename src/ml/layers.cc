#include "ml/layers.h"

#include <cmath>

#include "ml/kernels.h"

namespace m3::ml {

Linear::Linear(const std::string& name, int in, int out, ParamSource& params)
    : w_(params.Take(name + ".w", in, out, {.stddev = 1.0f / std::sqrt(static_cast<float>(in))})),
      b_(params.Take(name + ".b", 1, out, {})) {}

Var Linear::operator()(Graph& g, Var x, Act act) {
  return g.Linear(x, g.Param(&w_), g.Param(&b_), act);
}

void Linear::Infer(const float* x, int rows, float* out, Act act) const {
  const int k = in_features(), n = out_features();
  kernels::FillRowsWithBias(out, b_.value.data(), rows, n);
  kernels::GemmAccum(x, w_.value.data(), out, rows, k, n);
  const std::size_t size = static_cast<std::size_t>(rows) * static_cast<std::size_t>(n);
  if (act == Act::kRelu) {
    kernels::ReluForward(out, out, size);
  } else if (act == Act::kGelu) {
    kernels::GeluForward(out, out, size);
  }
}

void Linear::CollectParams(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

RmsNormLayer::RmsNormLayer(const std::string& name, int dim, ParamSource& params)
    : gain_(params.Take(name + ".gain", 1, dim, {.fill = 1.0f})) {}

Var RmsNormLayer::operator()(Graph& g, Var x) { return g.RmsNorm(x, g.Param(&gain_)); }

void RmsNormLayer::Infer(const float* x, int rows, float* out, float* inv_r) const {
  kernels::RmsNormForward(out, inv_r, x, gain_.value.data(), rows, gain_.value.cols(),
                          kRmsNormEps);
}

void RmsNormLayer::CollectParams(std::vector<Parameter*>& out) { out.push_back(&gain_); }

Mlp::Mlp(const std::string& name, int in, int hidden, int out, ParamSource& params)
    : fc1_(name + ".fc1", in, hidden, params), fc2_(name + ".fc2", hidden, out, params) {}

Var Mlp::operator()(Graph& g, Var x) { return fc2_(g, fc1_(g, x, Act::kRelu)); }

void Mlp::Infer(const float* x, int rows, float* hidden, float* out) const {
  fc1_.Infer(x, rows, hidden, Act::kRelu);
  fc2_.Infer(hidden, rows, out);
}

void Mlp::CollectParams(std::vector<Parameter*>& out) {
  fc1_.CollectParams(out);
  fc2_.CollectParams(out);
}

}  // namespace m3::ml
