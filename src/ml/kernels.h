// Compute kernels for the ML stack: the GEMM family in the three shapes
// autograd needs, fused bias/activation/normalization passes, and
// vectorizable elementwise loops. autograd.cc routes every hot loop
// through this layer.
//
// Three implementations sit behind a runtime dispatch (see DESIGN.md §11):
//   - naive:  the seed's original loops (kernels_naive.cc, no ISA flags),
//             the parity reference and in-process "seed baseline" for
//             bench/micro_ml_speed.cc;
//   - avx2:   256-bit FMA microkernels (kernels_avx2.cc, -mavx2 -mfma);
//   - avx512: 512-bit microkernels (kernels_avx512.cc, -mavx512f).
// Each tier's translation unit also builds its own copy of the shared
// elementwise kernels (kernels_shared.inc) with that tier's flags, so no
// code outside the AVX units needs more than baseline x86-64.
// The active implementation is an atomic process-wide setting: it defaults
// to the best tier the CPU supports (CPUID-gated, util/cpu_features.h) and
// can be forced with the M3_KERNEL environment variable or SetKernelImpl.
// Forcing an unavailable tier falls back to the best available one, so
// M3_KERNEL=avx512 is always safe to set in CI.
//
// All kernels are deterministic: for a fixed implementation the floating
// point summation order depends only on the operand shapes, never on
// thread count or timing (the kernels themselves are single-threaded;
// callers parallelize across independent problems). Different
// implementations may round differently (blocking and FMA change the
// summation order/contraction), which is why parity tests compare with a
// shape-scaled tolerance.
#pragma once

#include <cstddef>

namespace m3::ml::kernels {

// ----- implementation selection -----

enum class KernelImpl : int {
  kNaive = 0,   // seed reference loops
  kAvx2 = 1,    // 256-bit FMA
  kAvx512 = 2,  // 512-bit
};

/// True when `impl` was compiled in and the executing CPU supports it.
bool KernelImplAvailable(KernelImpl impl);

/// Selects the active implementation (atomic; safe to call from any thread,
/// though switching mid-training changes which kernels later samples use).
/// An unavailable request falls back to the best available tier; returns
/// the implementation actually installed.
KernelImpl SetKernelImpl(KernelImpl impl);

/// The active implementation (resolved on first use from M3_KERNEL /
/// CPUID, see ResolveKernelImpl).
KernelImpl GetKernelImpl();

/// Lower-case name ("naive", "avx2", "avx512").
const char* KernelImplName(KernelImpl impl);

/// Parses a name as accepted by M3_KERNEL. Returns false on garbage.
bool ParseKernelImpl(const char* name, KernelImpl* out);

/// Pure resolution rule used at startup: `env_value` (the M3_KERNEL
/// setting, may be null/empty) is parsed and clamped to availability;
/// null, empty, or unrecognized values resolve to the best available
/// tier (unrecognized additionally warns on stderr once per process).
KernelImpl ResolveKernelImpl(const char* env_value);

// ----- GEMM family (row-major, accumulate into the output) -----
//
// Shapes follow autograd's MatMul: A [m,k], B [k,n], C/dC [m,n]. The AVX
// tiers carry dedicated m=1 (GEMV) and small-m panel paths for the
// model's worst shapes (head_fc1/head_fc2/seq_in_proj).
//
// Row contract of GemmAccum: row r of C depends only on row r of A, on B
// and on row r of C's initial value — never on m, on the other rows, or on
// where A's rows start in memory — so every row of an m-row product is
// bitwise equal to the m = 1 call on that row alone, for each
// implementation. Batched inference (M3Model::Infer) stacks many paths'
// rows into one product on this guarantee; Kernels.GemmAccumRowsMatch-
// SingleRowCall checks it on the model's shapes. Keep it when changing any
// tier's blocking.

/// C += A * B
void GemmAccum(const float* a, const float* b, float* c, int m, int k, int n);

/// dA += dC * B^T without materializing B^T (dC [m,n], B [k,n], dA [m,k]).
void GemmAccumNT(const float* dc, const float* b, float* da, int m, int n, int k);

/// dB += A^T * dC without materializing A^T (A [m,k], dC [m,n], dB [k,n]).
void GemmAccumTN(const float* a, const float* dc, float* db, int m, int k, int n);

// Naive reference versions (the seed's exact loop nests).
void GemmAccumNaive(const float* a, const float* b, float* c, int m, int k, int n);
void GemmAccumNTNaive(const float* dc, const float* b, float* da, int m, int n, int k);
void GemmAccumTNNaive(const float* a, const float* dc, float* db, int m, int k, int n);

// ----- fused / elementwise kernels -----

/// out[r,:] = x[r,:] + bias[0,:] (fused broadcast bias-add; out may alias x).
void BiasAddRows(float* out, const float* x, const float* bias, int rows, int cols);

/// out[r,:] = bias[0,:] for every row (GEMM-output initialization for the
/// fused Linear op: the bias lands first, then GemmAccum accumulates).
void FillRowsWithBias(float* out, const float* bias, int rows, int cols);

/// bg[0,:] += sum_r go[r,:] (bias gradient reduction).
void ColSumAccum(float* bg, const float* go, int rows, int cols);

/// y += alpha * x
void AxpyAccum(float* y, const float* x, float alpha, std::size_t size);

/// dst += src; src = 0 (single pass; gradient-slot reduction).
void AddAndZero(float* dst, float* src, std::size_t size);

/// dst[i] = alpha * (srcs[0][i] + srcs[1][i] + ...); srcs zeroed. One pass
/// over memory instead of nsrcs+1 passes (dst is overwritten, not read, and
/// the minibatch 1/n scaling rides along for free). The per-element addition
/// order is the srcs order, so the result is independent of thread count
/// (and the vectorized tiers are bitwise identical to scalar: lanes are
/// independent elements).
void ReduceScaleAndZero(float* dst, float* const* srcs, std::size_t nsrcs, std::size_t size,
                        float alpha);

/// x *= alpha
void ScaleInPlace(float* x, float alpha, std::size_t size);

/// sum of x[i]^2 accumulated in double (gradient-norm clipping).
double SumSquares(const float* x, std::size_t size);

/// One fused Adam update over a parameter block: given bias-correction
/// terms bc1 = 1-beta1^t and bc2 = 1-beta2^t, reads each gradient as
/// grad[i] * gscale (global-norm clip factor, 1 when not clipping),
/// updates m/v in place, applies the step to `value`, and zeroes the
/// gradient — one pass instead of clip-scale + step + zero.
void AdamStep(float* value, float* grad, float* m, float* v, std::size_t size,
              float lr, float beta1, float beta2, float eps, float bc1, float bc2,
              float gscale);

// Naive reference versions of the optimizer loops (seed's scalar code),
// used when the naive implementation is active so the bench baseline
// matches the seed end to end.
void AdamStepNaive(float* value, const float* grad, float* m, float* v, std::size_t size,
                   float lr, float beta1, float beta2, float eps, float bc1, float bc2);
double SumSquaresNaive(const float* x, std::size_t size);

/// dst = max(src, 0); dst may alias src.
void ReluForward(float* dst, const float* src, std::size_t size);

/// ga += go where x > 0.
void ReluBackwardAccum(float* ga, const float* go, const float* x, std::size_t size);

/// dst = go where x > 0, else 0 (overwrite form for the fused Linear
/// backward, which feeds the result straight into the GEMM backward).
void ReluBackwardInto(float* dst, const float* go, const float* x, std::size_t size);

/// dst = src * sigmoid(1.702 * src) (SiLU-style GELU); dst may alias src.
void GeluForward(float* dst, const float* src, std::size_t size);

/// ga += go * d/dx[x * sigmoid(1.702 x)].
void GeluBackwardAccum(float* ga, const float* go, const float* x, std::size_t size);

/// dst = go * d/dx[x * sigmoid(1.702 x)] (overwrite form, see ReluBackwardInto).
void GeluBackwardInto(float* dst, const float* go, const float* x, std::size_t size);

/// Row-wise softmax in place.
void SoftmaxRows(float* data, int rows, int cols);

/// Row-wise softmax(scale * x) in place — the attention Scale+Softmax
/// chain as one pass (max, exp, normalize; the scale folds into the
/// exponent instead of materializing a scaled tensor on the tape).
void SoftmaxScaledRows(float* data, int rows, int cols, float scale);

/// ga += softmax backward given output y and upstream go (row-wise).
void SoftmaxBackwardAccum(float* ga, const float* go, const float* y, int rows, int cols);

/// ga += scale * (softmax backward) — backward of SoftmaxScaledRows.
void SoftmaxScaledBackwardAccum(float* ga, const float* go, const float* y, int rows,
                                int cols, float scale);

/// Row-wise RMS norm: out[r,:] = gain[0,:] * x[r,:] * inv_r[r] with
/// inv_r[r] = 1/sqrt(mean(x[r,:]^2) + eps), saved to `inv_r` ([rows]) for
/// the backward pass (one fused pass instead of the old scalar loops).
void RmsNormForward(float* out, float* inv_r, const float* x, const float* gain,
                    int rows, int cols, float eps);

/// Backward of RmsNormForward using the cached inv_r:
///   gx[r,j]    += go[r,j]*gain[j]*inv_r[r] - x[r,j] * s_r * inv_r[r]^3 / cols
///   ggain[j]   += go[r,j]*x[r,j]*inv_r[r]
/// with s_r = sum_j go[r,j]*gain[j]*x[r,j].
void RmsNormBackwardAccum(float* gx, float* ggain, const float* go, const float* x,
                          const float* gain, const float* inv_r, int rows, int cols);

}  // namespace m3::ml::kernels
