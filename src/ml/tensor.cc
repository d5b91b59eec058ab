#include "ml/tensor.h"

#include <algorithm>
#include <stdexcept>

namespace m3::ml {

Tensor::Tensor(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0f) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Tensor: negative shape");
}

Tensor::Tensor(int rows, int cols, FloatVec&& buf)
    : rows_(rows), cols_(cols), data_(std::move(buf)) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Tensor: negative shape");
  if (data_.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    throw std::invalid_argument("Tensor: adopted buffer size mismatch");
  }
}

Tensor Tensor::Randn(int rows, int cols, Rng& rng, float stddev) {
  Tensor t(rows, cols);
  for (float& v : t.data_) v = static_cast<float>(rng.Normal(0.0, stddev));
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& v) {
  Tensor t(1, static_cast<int>(v.size()));
  t.data_.assign(v.begin(), v.end());
  return t;
}

void Tensor::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::AddInPlace(const Tensor& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("Tensor::AddInPlace shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

Parameter::Parameter(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)) {}

void Parameter::ZeroGrad() {
  if (grad.empty()) {
    grad = Tensor::Zeros(value.rows(), value.cols());
  } else {
    grad.Fill(0.0f);
  }
}

void Parameter::AllocTrainingState() {
  for (Tensor* t : {&grad, &adam_m, &adam_v}) {
    if (t->empty()) *t = Tensor::Zeros(value.rows(), value.cols());
  }
}

Parameter RandomParams::Take(std::string name, int rows, int cols, Init init) {
  if (init.stddev > 0.0f) return {std::move(name), Tensor::Randn(rows, cols, rng_, init.stddev)};
  Tensor t(rows, cols);
  t.Fill(init.fill);
  return {std::move(name), std::move(t)};
}

}  // namespace m3::ml
