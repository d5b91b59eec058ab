#include "ml/optimizer.h"

#include <cmath>

#include "ml/kernels.h"

namespace m3::ml {

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : params_(std::move(params)), opts_(opts) {}

std::int64_t Adam::step() const { return step_; }

void Adam::set_step(std::int64_t step) { step_ = step; }

void Adam::ZeroGrad() {
  for (Parameter* p : params_) p->ZeroGrad();
}

void Adam::ScaleGrads(float factor) {
  for (Parameter* p : params_) {
    kernels::ScaleInPlace(p->grad.data(), factor, p->grad.size());
  }
}

void Adam::Step() {
  for (Parameter* p : params_) p->AllocTrainingState();
  ++step_;
  const float bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(step_));

  if (kernels::GetKernelImpl() == kernels::KernelImpl::kNaive) {
    // Reference path: the seed's separate clip / step / zero passes.
    if (opts_.grad_clip > 0.0f) {
      double norm_sq = 0.0;
      for (Parameter* p : params_) {
        norm_sq += kernels::SumSquaresNaive(p->grad.data(), p->grad.size());
      }
      const double norm = std::sqrt(norm_sq);
      if (norm > opts_.grad_clip) {
        ScaleGrads(static_cast<float>(opts_.grad_clip / norm));
      }
    }
    for (Parameter* p : params_) {
      kernels::AdamStepNaive(p->value.data(), p->grad.data(), p->adam_m.data(),
                             p->adam_v.data(), p->value.size(), opts_.lr, opts_.beta1,
                             opts_.beta2, opts_.eps, bc1, bc2);
      p->ZeroGrad();
    }
    return;
  }

  // Fused path: one norm pass, then one pass that clips, steps, and zeroes.
  float gscale = 1.0f;
  if (opts_.grad_clip > 0.0f) {
    double norm_sq = 0.0;
    for (Parameter* p : params_) {
      norm_sq += kernels::SumSquares(p->grad.data(), p->grad.size());
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > opts_.grad_clip) gscale = static_cast<float>(opts_.grad_clip / norm);
  }
  for (Parameter* p : params_) {
    kernels::AdamStep(p->value.data(), p->grad.data(), p->adam_m.data(),
                      p->adam_v.data(), p->value.size(), opts_.lr, opts_.beta1,
                      opts_.beta2, opts_.eps, bc1, bc2, gscale);
  }
}

}  // namespace m3::ml
