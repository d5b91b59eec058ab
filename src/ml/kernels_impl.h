// Internal seam behind the ml/kernels.h dispatch. Each tier lives in its
// own translation unit, compiled with exactly the flags it needs (see
// src/CMakeLists.txt), and exports one table of its kernels:
//
//   naive   kernels_naive.cc   seed loops, base options, no ISA flags
//   avx2    kernels_avx2.cc    256-bit FMA intrinsics (-mavx2 -mfma)
//   avx512  kernels_avx512.cc  512-bit intrinsics (-mavx512f)
//
// Every tier unit ends by including kernels_shared.inc, which builds the
// shared elementwise kernels and the tier's table inside the tier's
// namespace, so each tier runs only code compiled for its own ISA and no
// copy built for one ISA can be linked into another. kernels.cc holds
// only the dispatcher and is built portably.
//
// The AVX units are compiled whenever the *compiler* accepts the flags;
// the dispatcher additionally gates on runtime CPUID (util/cpu_features.h).
// When the compiler cannot target an ISA, the unit builds as a stub whose
// table is null, and the dispatcher never selects it.
//
// This header is internal to the ml/ kernels; everything else goes through
// the dispatching functions in ml/kernels.h.
#pragma once

#include "ml/kernels.h"

#if defined(__GNUC__)
#define M3_RESTRICT __restrict__
#else
#define M3_RESTRICT
#endif

namespace m3::ml::kernels {

// One tier's kernels: a member per dispatched function of ml/kernels.h,
// named after it (SoftmaxRows and SoftmaxBackwardAccum forward to their
// scaled forms and need no entry).
struct KernelTable {
  decltype(&kernels::GemmAccum) GemmAccum;
  decltype(&kernels::GemmAccumNT) GemmAccumNT;
  decltype(&kernels::GemmAccumTN) GemmAccumTN;
  decltype(&kernels::BiasAddRows) BiasAddRows;
  decltype(&kernels::FillRowsWithBias) FillRowsWithBias;
  decltype(&kernels::ColSumAccum) ColSumAccum;
  decltype(&kernels::AxpyAccum) AxpyAccum;
  decltype(&kernels::AddAndZero) AddAndZero;
  decltype(&kernels::ReduceScaleAndZero) ReduceScaleAndZero;
  decltype(&kernels::ScaleInPlace) ScaleInPlace;
  decltype(&kernels::SumSquares) SumSquares;
  decltype(&kernels::AdamStep) AdamStep;
  decltype(&kernels::ReluForward) ReluForward;
  decltype(&kernels::ReluBackwardAccum) ReluBackwardAccum;
  decltype(&kernels::ReluBackwardInto) ReluBackwardInto;
  decltype(&kernels::GeluForward) GeluForward;
  decltype(&kernels::GeluBackwardAccum) GeluBackwardAccum;
  decltype(&kernels::GeluBackwardInto) GeluBackwardInto;
  decltype(&kernels::SoftmaxScaledRows) SoftmaxScaledRows;
  decltype(&kernels::SoftmaxScaledBackwardAccum) SoftmaxScaledBackwardAccum;
  decltype(&kernels::RmsNormForward) RmsNormForward;
  decltype(&kernels::RmsNormBackwardAccum) RmsNormBackwardAccum;
};

// Each tier's table; null when the compiler cannot target the tier's ISA.
namespace naive {
extern const KernelTable* const kKernels;
}  // namespace naive
namespace avx2 {
extern const KernelTable* const kKernels;
}  // namespace avx2
namespace avx512 {
extern const KernelTable* const kKernels;
}  // namespace avx512

}  // namespace m3::ml::kernels
