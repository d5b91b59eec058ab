// Naive kernel tier: the seed revision's exact GEMM loop nests and the
// scalar elementwise loops, plus the shared kernels of kernels_shared.inc,
// all compiled with the base kernel options and no ISA flags
// (src/CMakeLists.txt). Parity tests and bench/micro_ml_speed.cc compare
// the AVX tiers against this faithful in-process reproduction of the
// seed's serial compute path, and it is the tier a CPU without AVX2 runs.
#include <cmath>
#include <cstddef>

#include "ml/kernels.h"
#include "ml/kernels_impl.h"

namespace m3::ml::kernels {
namespace naive {

void GemmAccum(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a[static_cast<std::size_t>(i) * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmAccumNT(const float* dc, const float* b, float* da, int m, int n, int k) {
  // Seed loop: for each dC element, scatter into dA walking B column-wise.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float g = dc[static_cast<std::size_t>(i) * n + j];
      if (g == 0.0f) continue;
      float* darow = da + static_cast<std::size_t>(i) * k;
      for (int p = 0; p < k; ++p) darow[p] += g * b[static_cast<std::size_t>(p) * n + j];
    }
  }
}

void GemmAccumTN(const float* a, const float* dc, float* db, int m, int k, int n) {
  for (int p = 0; p < k; ++p) {
    for (int i = 0; i < m; ++i) {
      const float av = a[static_cast<std::size_t>(i) * k + p];
      if (av == 0.0f) continue;
      const float* grow = dc + static_cast<std::size_t>(i) * n;
      float* dbrow = db + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * grow[j];
    }
  }
}

void BiasAddRows(float* out, const float* x, const float* bias, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* M3_RESTRICT orow = out + static_cast<std::size_t>(r) * cols;
    const float* M3_RESTRICT xrow = x + static_cast<std::size_t>(r) * cols;
    for (int j = 0; j < cols; ++j) orow[j] = xrow[j] + bias[j];
  }
}

void ColSumAccum(float* bg, const float* go, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* M3_RESTRICT grow = go + static_cast<std::size_t>(r) * cols;
    for (int j = 0; j < cols; ++j) bg[j] += grow[j];
  }
}

void AxpyAccum(float* y, const float* x, float alpha, std::size_t size) {
  float* M3_RESTRICT yp = y;
  const float* M3_RESTRICT xp = x;
  for (std::size_t i = 0; i < size; ++i) yp[i] += alpha * xp[i];
}

void AddAndZero(float* dst, float* src, std::size_t size) {
  float* M3_RESTRICT d = dst;
  float* M3_RESTRICT s = src;
  for (std::size_t i = 0; i < size; ++i) {
    d[i] += s[i];
    s[i] = 0.0f;
  }
}

void ReduceScaleAndZero(float* dst, float* const* srcs, std::size_t nsrcs, std::size_t size,
                        float alpha) {
  for (std::size_t i = 0; i < size; ++i) {
    float acc = 0.0f;
    for (std::size_t s = 0; s < nsrcs; ++s) {
      acc += srcs[s][i];
      srcs[s][i] = 0.0f;
    }
    dst[i] = acc * alpha;
  }
}

}  // namespace naive

void GemmAccumNaive(const float* a, const float* b, float* c, int m, int k, int n) {
  naive::GemmAccum(a, b, c, m, k, n);
}

void GemmAccumNTNaive(const float* dc, const float* b, float* da, int m, int n, int k) {
  naive::GemmAccumNT(dc, b, da, m, n, k);
}

void GemmAccumTNNaive(const float* a, const float* dc, float* db, int m, int k, int n) {
  naive::GemmAccumTN(a, dc, db, m, k, n);
}

void AdamStepNaive(float* value, const float* grad, float* m, float* v, std::size_t size,
                   float lr, float beta1, float beta2, float eps, float bc1, float bc2) {
  for (std::size_t i = 0; i < size; ++i) {
    const float g = grad[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

double SumSquaresNaive(const float* x, std::size_t size) {
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    norm_sq += static_cast<double>(x[i]) * x[i];
  }
  return norm_sq;
}

}  // namespace m3::ml::kernels

#define M3_KERNEL_TIER naive
#include "ml/kernels_shared.inc"
