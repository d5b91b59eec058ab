// Dispatch layer: resolves the active tier once and forwards every kernel
// to that tier's table (ml/kernels_impl.h). This translation unit holds no
// kernel code and is built with the project's portable flags; each tier's
// kernels live in their own unit, compiled with that tier's ISA flags.
#include "ml/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ml/kernels_impl.h"
#include "util/cpu_features.h"

namespace m3::ml::kernels {

// ----------------------------------------------------------------------
// Implementation selection
// ----------------------------------------------------------------------
namespace {

// -1 = not yet resolved; otherwise a KernelImpl value. Resolution is a
// pure function of M3_KERNEL + CPUID, so a racing first use from several
// threads installs the same value.
std::atomic<int> g_impl{-1};

// The tier's kernels, or null when the tier was not compiled in or the
// CPU lacks its ISA.
const KernelTable* TierKernels(KernelImpl impl) {
  switch (impl) {
    case KernelImpl::kNaive: return naive::kKernels;
    case KernelImpl::kAvx2: return CpuSupportsAvx2Fma() ? avx2::kKernels : nullptr;
    case KernelImpl::kAvx512: return CpuSupportsAvx512() ? avx512::kKernels : nullptr;
  }
  return nullptr;
}

KernelImpl BestAvailableImpl() {
  if (KernelImplAvailable(KernelImpl::kAvx512)) return KernelImpl::kAvx512;
  if (KernelImplAvailable(KernelImpl::kAvx2)) return KernelImpl::kAvx2;
  return KernelImpl::kNaive;
}

// The active tier's kernels; GetKernelImpl only ever yields an available
// tier, so this is never null.
const KernelTable& Active() { return *TierKernels(GetKernelImpl()); }

}  // namespace

bool KernelImplAvailable(KernelImpl impl) { return TierKernels(impl) != nullptr; }

const char* KernelImplName(KernelImpl impl) {
  switch (impl) {
    case KernelImpl::kNaive: return "naive";
    case KernelImpl::kAvx2: return "avx2";
    case KernelImpl::kAvx512: return "avx512";
  }
  return "?";
}

bool ParseKernelImpl(const char* name, KernelImpl* out) {
  if (name == nullptr || out == nullptr) return false;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    if (std::strcmp(name, KernelImplName(impl)) == 0) {
      *out = impl;
      return true;
    }
  }
  return false;
}

KernelImpl ResolveKernelImpl(const char* env_value) {
  if (env_value == nullptr || env_value[0] == '\0') return BestAvailableImpl();
  KernelImpl requested;
  if (!ParseKernelImpl(env_value, &requested)) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "m3: unrecognized M3_KERNEL=\"%s\" (want naive|avx2|avx512); "
                   "using %s\n",
                   env_value, KernelImplName(BestAvailableImpl()));
    }
    return BestAvailableImpl();
  }
  if (!KernelImplAvailable(requested)) return BestAvailableImpl();
  return requested;
}

KernelImpl GetKernelImpl() {
  int v = g_impl.load(std::memory_order_acquire);
  if (v < 0) {
    const KernelImpl resolved = ResolveKernelImpl(std::getenv("M3_KERNEL"));
    v = static_cast<int>(resolved);
    int expected = -1;
    if (!g_impl.compare_exchange_strong(expected, v, std::memory_order_acq_rel)) {
      v = expected;  // someone else resolved first (same value unless they Set)
    }
  }
  return static_cast<KernelImpl>(v);
}

KernelImpl SetKernelImpl(KernelImpl impl) {
  const KernelImpl effective = KernelImplAvailable(impl) ? impl : BestAvailableImpl();
  g_impl.store(static_cast<int>(effective), std::memory_order_release);
  return effective;
}

// ----------------------------------------------------------------------
// Dispatching wrappers
// ----------------------------------------------------------------------

void GemmAccum(const float* a, const float* b, float* c, int m, int k, int n) {
  Active().GemmAccum(a, b, c, m, k, n);
}

void GemmAccumNT(const float* dc, const float* b, float* da, int m, int n, int k) {
  Active().GemmAccumNT(dc, b, da, m, n, k);
}

void GemmAccumTN(const float* a, const float* dc, float* db, int m, int k, int n) {
  Active().GemmAccumTN(a, dc, db, m, k, n);
}

void BiasAddRows(float* out, const float* x, const float* bias, int rows, int cols) {
  Active().BiasAddRows(out, x, bias, rows, cols);
}

void FillRowsWithBias(float* out, const float* bias, int rows, int cols) {
  Active().FillRowsWithBias(out, bias, rows, cols);
}

void ColSumAccum(float* bg, const float* go, int rows, int cols) {
  Active().ColSumAccum(bg, go, rows, cols);
}

void AxpyAccum(float* y, const float* x, float alpha, std::size_t size) {
  Active().AxpyAccum(y, x, alpha, size);
}

void AddAndZero(float* dst, float* src, std::size_t size) {
  Active().AddAndZero(dst, src, size);
}

void ReduceScaleAndZero(float* dst, float* const* srcs, std::size_t nsrcs, std::size_t size,
                        float alpha) {
  Active().ReduceScaleAndZero(dst, srcs, nsrcs, size, alpha);
}

void ScaleInPlace(float* x, float alpha, std::size_t size) {
  Active().ScaleInPlace(x, alpha, size);
}

double SumSquares(const float* x, std::size_t size) { return Active().SumSquares(x, size); }

void AdamStep(float* value, float* grad, float* m, float* v, std::size_t size,
              float lr, float beta1, float beta2, float eps, float bc1, float bc2,
              float gscale) {
  Active().AdamStep(value, grad, m, v, size, lr, beta1, beta2, eps, bc1, bc2, gscale);
}

void ReluForward(float* dst, const float* src, std::size_t size) {
  Active().ReluForward(dst, src, size);
}

void ReluBackwardAccum(float* ga, const float* go, const float* x, std::size_t size) {
  Active().ReluBackwardAccum(ga, go, x, size);
}

void ReluBackwardInto(float* dst, const float* go, const float* x, std::size_t size) {
  Active().ReluBackwardInto(dst, go, x, size);
}

void GeluForward(float* dst, const float* src, std::size_t size) {
  Active().GeluForward(dst, src, size);
}

void GeluBackwardAccum(float* ga, const float* go, const float* x, std::size_t size) {
  Active().GeluBackwardAccum(ga, go, x, size);
}

void GeluBackwardInto(float* dst, const float* go, const float* x, std::size_t size) {
  Active().GeluBackwardInto(dst, go, x, size);
}

void SoftmaxRows(float* data, int rows, int cols) { SoftmaxScaledRows(data, rows, cols, 1.0f); }

void SoftmaxScaledRows(float* data, int rows, int cols, float scale) {
  Active().SoftmaxScaledRows(data, rows, cols, scale);
}

void SoftmaxBackwardAccum(float* ga, const float* go, const float* y, int rows, int cols) {
  SoftmaxScaledBackwardAccum(ga, go, y, rows, cols, 1.0f);
}

void SoftmaxScaledBackwardAccum(float* ga, const float* go, const float* y, int rows,
                                int cols, float scale) {
  Active().SoftmaxScaledBackwardAccum(ga, go, y, rows, cols, scale);
}

void RmsNormForward(float* out, float* inv_r, const float* x, const float* gain,
                    int rows, int cols, float eps) {
  Active().RmsNormForward(out, inv_r, x, gain, rows, cols, eps);
}

void RmsNormBackwardAccum(float* gx, float* ggain, const float* go, const float* x,
                          const float* gain, const float* inv_r, int rows, int cols) {
  Active().RmsNormBackwardAccum(gx, ggain, go, x, gain, inv_r, rows, cols);
}

}  // namespace m3::ml::kernels
