// 512-bit AVX-512F kernel tier. Same structure as kernels_avx2.cc with
// twice the lane width; column remainders use the native k-mask registers
// (__mmask16) instead of vector maskload, so every loop body has exactly
// one masked epilogue form and never touches memory past a row's end.
// Compiled, with the shared kernels of kernels_shared.inc, with -mavx512f
// when the compiler supports it (M3_KERNELS_AVX512); a null table
// otherwise. Runtime CPUID gating lives in the dispatcher.
#include "ml/kernels_impl.h"

#if defined(M3_KERNELS_AVX512)

#include <immintrin.h>

#include <cstddef>

namespace m3::ml::kernels::avx512 {

namespace {

inline __mmask16 TailMask16(int rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

// Register-tiled accumulation panel; see kernels_avx2.cc for the stride
// parameterization (forward: ars=k ass=1; TN: ars=1 ass=k). MR=8, NV=3
// covers an 8x48 output tile with 24 zmm accumulators + 3 B vectors + 1
// broadcast = 28 of the 32 zmm registers (8 rows of B reuse per load is
// worth ~25% over 4 rows on square_256).
template <int MR, int NV>
inline void TileFull(const float* abase, std::ptrdiff_t ars, std::ptrdiff_t ass,
                     const float* bbase, std::ptrdiff_t bstride, int steps,
                     float* cbase, std::ptrdiff_t crs) {
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_loadu_ps(cbase + r * crs + v * 16);
  for (int s = 0; s < steps; ++s) {
    const float* brow = bbase + s * bstride;
    __m512 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm512_loadu_ps(brow + v * 16);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(abase[r * ars + s * ass]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm512_storeu_ps(cbase + r * crs + v * 16, acc[r][v]);
}

template <int MR>
inline void TileMasked(const float* abase, std::ptrdiff_t ars, std::ptrdiff_t ass,
                       const float* bbase, std::ptrdiff_t bstride, int steps,
                       float* cbase, std::ptrdiff_t crs, __mmask16 mask) {
  __m512 acc[MR];
  for (int r = 0; r < MR; ++r)
    acc[r] = _mm512_maskz_loadu_ps(mask, cbase + r * crs);
  for (int s = 0; s < steps; ++s) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, bbase + s * bstride);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(abase[r * ars + s * ass]);
      acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) _mm512_mask_storeu_ps(cbase + r * crs, mask, acc[r]);
}

template <int NV>
inline void StripRows(const float* a, std::ptrdiff_t ars, std::ptrdiff_t ass, int rows,
                      const float* b, std::ptrdiff_t bstride, int steps, float* c,
                      std::ptrdiff_t crs) {
  int r0 = 0;
  for (; r0 + 8 <= rows; r0 += 8)
    TileFull<8, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs);
  if (rows - r0 >= 4) {
    TileFull<4, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs);
    r0 += 4;
  }
  switch (rows - r0) {
    case 3: TileFull<3, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    case 2: TileFull<2, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    case 1: TileFull<1, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    default: break;
  }
}

inline void StripRowsMasked(const float* a, std::ptrdiff_t ars, std::ptrdiff_t ass,
                            int rows, const float* b, std::ptrdiff_t bstride, int steps,
                            float* c, std::ptrdiff_t crs, __mmask16 mask) {
  int r0 = 0;
  for (; r0 + 8 <= rows; r0 += 8)
    TileMasked<8>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask);
  if (rows - r0 >= 4) {
    TileMasked<4>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask);
    r0 += 4;
  }
  switch (rows - r0) {
    case 3: TileMasked<3>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    case 2: TileMasked<2>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    case 1: TileMasked<1>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    default: break;
  }
}

// j-strips of 48/32/16 columns, then one masked tail.
inline void GemmGeneric(const float* a, std::ptrdiff_t ars, std::ptrdiff_t ass, int rows,
                        const float* b, std::ptrdiff_t bstride, int steps, float* c,
                        std::ptrdiff_t crs, int n) {
  int j = 0;
  for (; j + 48 <= n; j += 48)
    StripRows<3>(a, ars, ass, rows, b + j, bstride, steps, c + j, crs);
  if (j + 32 <= n) {
    StripRows<2>(a, ars, ass, rows, b + j, bstride, steps, c + j, crs);
    j += 32;
  }
  if (j + 16 <= n) {
    StripRows<1>(a, ars, ass, rows, b + j, bstride, steps, c + j, crs);
    j += 16;
  }
  if (j < n)
    StripRowsMasked(a, ars, ass, rows, b + j, bstride, steps, c + j, crs,
                    TailMask16(n - j));
}

// m == 1 GEMV: c[j] += sum_p a[p] * B[p, j] is pure B bandwidth (2 FLOPs
// per 4 bytes, B far exceeds L1 for the model's head layers), so the wide
// strips exist to keep the B stream long and sequential: 256 columns = 16
// zmm accumulators per strip, with a short software prefetch a few B rows
// ahead (the next row is a full `bstride` away, which defeats the
// next-line prefetcher at strip boundaries).
template <int NV>
inline void GemvStrip(const float* a, const float* b, std::ptrdiff_t bstride, int k,
                      float* c) {
  constexpr int kPrefetchRows = 4;
  __m512 acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_loadu_ps(c + v * 16);
  const int kpf = k > kPrefetchRows ? k - kPrefetchRows : 0;
  for (int p = 0; p < k; ++p) {
    const __m512 av = _mm512_set1_ps(a[p]);
    const float* brow = b + p * bstride;
    if (p < kpf) {
      const char* nxt = reinterpret_cast<const char*>(brow + kPrefetchRows * bstride);
      for (int v = 0; v < NV; v += 2) _mm_prefetch(nxt + v * 64, _MM_HINT_T0);
    }
    for (int v = 0; v < NV; ++v)
      acc[v] = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + v * 16), acc[v]);
  }
  for (int v = 0; v < NV; ++v) _mm512_storeu_ps(c + v * 16, acc[v]);
}

inline void Gemv(const float* a, const float* b, float* c, int k, int n) {
  int j = 0;
  for (; j + 256 <= n; j += 256) GemvStrip<16>(a, b + j, n, k, c + j);
  for (; j + 128 <= n; j += 128) GemvStrip<8>(a, b + j, n, k, c + j);
  for (; j + 64 <= n; j += 64) GemvStrip<4>(a, b + j, n, k, c + j);
  for (; j + 16 <= n; j += 16) GemvStrip<1>(a, b + j, n, k, c + j);
  if (j < n) {
    const __mmask16 mask = TailMask16(n - j);
    __m512 acc = _mm512_maskz_loadu_ps(mask, c + j);
    for (int p = 0; p < k; ++p)
      acc = _mm512_fmadd_ps(_mm512_set1_ps(a[p]),
                            _mm512_maskz_loadu_ps(mask, b + p * n + j), acc);
    _mm512_mask_storeu_ps(c + j, mask, acc);
  }
}

}  // namespace

// Defined with the elementwise kernels below. Declared here so the TN
// GEMM's rank-1 path calls this tier's copy, not the ml/kernels.h
// dispatcher that unqualified lookup would otherwise find.
void AxpyAccum(float* y, const float* x, float alpha, std::size_t size);

void GemmAccum(const float* a, const float* b, float* c, int m, int k, int n) {
  if (m == 1) {
    Gemv(a, b, c, k, n);
    return;
  }
  GemmGeneric(a, k, 1, m, b, n, k, c, n, n);
}

void GemmAccumTN(const float* a, const float* dc, float* db, int m, int k, int n) {
  if (m == 1) {
    for (int p = 0; p < k; ++p) AxpyAccum(db + static_cast<std::size_t>(p) * n, dc, a[p], n);
    return;
  }
  GemmGeneric(a, 1, k, k, dc, n, m, db, n, n);
}

// dA[i, p] += dot(dC[i, :], B[p, :]). Four B rows share each loaded dC
// vector; _mm512_reduce_add_ps handles the horizontal sums (backward-pass
// kernel, the reduction cost is amortized over n-length dots).
void GemmAccumNT(const float* dc, const float* b, float* da, int m, int n, int k) {
  for (int i = 0; i < m; ++i) {
    const float* gi = dc + static_cast<std::size_t>(i) * n;
    float* dai = da + static_cast<std::size_t>(i) * k;
    int p0 = 0;
    for (; p0 + 4 <= k; p0 += 4) {
      const float* b0 = b + static_cast<std::size_t>(p0 + 0) * n;
      const float* b1 = b + static_cast<std::size_t>(p0 + 1) * n;
      const float* b2 = b + static_cast<std::size_t>(p0 + 2) * n;
      const float* b3 = b + static_cast<std::size_t>(p0 + 3) * n;
      __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
      __m512 a2 = _mm512_setzero_ps(), a3 = _mm512_setzero_ps();
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m512 g = _mm512_loadu_ps(gi + j);
        a0 = _mm512_fmadd_ps(g, _mm512_loadu_ps(b0 + j), a0);
        a1 = _mm512_fmadd_ps(g, _mm512_loadu_ps(b1 + j), a1);
        a2 = _mm512_fmadd_ps(g, _mm512_loadu_ps(b2 + j), a2);
        a3 = _mm512_fmadd_ps(g, _mm512_loadu_ps(b3 + j), a3);
      }
      if (j < n) {
        const __mmask16 mask = TailMask16(n - j);
        const __m512 g = _mm512_maskz_loadu_ps(mask, gi + j);
        a0 = _mm512_fmadd_ps(g, _mm512_maskz_loadu_ps(mask, b0 + j), a0);
        a1 = _mm512_fmadd_ps(g, _mm512_maskz_loadu_ps(mask, b1 + j), a1);
        a2 = _mm512_fmadd_ps(g, _mm512_maskz_loadu_ps(mask, b2 + j), a2);
        a3 = _mm512_fmadd_ps(g, _mm512_maskz_loadu_ps(mask, b3 + j), a3);
      }
      dai[p0 + 0] += _mm512_reduce_add_ps(a0);
      dai[p0 + 1] += _mm512_reduce_add_ps(a1);
      dai[p0 + 2] += _mm512_reduce_add_ps(a2);
      dai[p0 + 3] += _mm512_reduce_add_ps(a3);
    }
    for (; p0 < k; ++p0) {
      const float* bp = b + static_cast<std::size_t>(p0) * n;
      __m512 acc = _mm512_setzero_ps();
      int j = 0;
      for (; j + 16 <= n; j += 16)
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(gi + j), _mm512_loadu_ps(bp + j), acc);
      if (j < n) {
        const __mmask16 mask = TailMask16(n - j);
        acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, gi + j),
                              _mm512_maskz_loadu_ps(mask, bp + j), acc);
      }
      dai[p0] += _mm512_reduce_add_ps(acc);
    }
  }
}

// Elementwise kernels; masked epilogues keep every element on the vector
// path (no scalar tails), and lanes are independent elements so results
// match the scalar loops bitwise except for FMA contraction in AxpyAccum.

void BiasAddRows(float* out, const float* x, const float* bias, int rows, int cols) {
  const int vend = cols & ~15;
  const __mmask16 mask = TailMask16(cols - vend);
  for (int r = 0; r < rows; ++r) {
    float* orow = out + static_cast<std::size_t>(r) * cols;
    const float* xrow = x + static_cast<std::size_t>(r) * cols;
    int j = 0;
    for (; j < vend; j += 16)
      _mm512_storeu_ps(orow + j,
                       _mm512_add_ps(_mm512_loadu_ps(xrow + j), _mm512_loadu_ps(bias + j)));
    if (j < cols)
      _mm512_mask_storeu_ps(orow + j, mask,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(mask, xrow + j),
                                          _mm512_maskz_loadu_ps(mask, bias + j)));
  }
}

void ColSumAccum(float* bg, const float* go, int rows, int cols) {
  int j = 0;
  for (; j + 16 <= cols; j += 16) {
    __m512 acc = _mm512_loadu_ps(bg + j);
    for (int r = 0; r < rows; ++r)
      acc = _mm512_add_ps(acc, _mm512_loadu_ps(go + static_cast<std::size_t>(r) * cols + j));
    _mm512_storeu_ps(bg + j, acc);
  }
  if (j < cols) {
    const __mmask16 mask = TailMask16(cols - j);
    __m512 acc = _mm512_maskz_loadu_ps(mask, bg + j);
    for (int r = 0; r < rows; ++r)
      acc = _mm512_add_ps(
          acc, _mm512_maskz_loadu_ps(mask, go + static_cast<std::size_t>(r) * cols + j));
    _mm512_mask_storeu_ps(bg + j, mask, acc);
  }
}

void AxpyAccum(float* y, const float* x, float alpha, std::size_t size) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16)
    _mm512_storeu_ps(y + i,
                     _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  if (i < size) {
    const __mmask16 mask = TailMask16(static_cast<int>(size - i));
    _mm512_mask_storeu_ps(y + i, mask,
                          _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(mask, x + i),
                                          _mm512_maskz_loadu_ps(mask, y + i)));
  }
}

void AddAndZero(float* dst, float* src, std::size_t size) {
  const __m512 vz = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    _mm512_storeu_ps(dst + i,
                     _mm512_add_ps(_mm512_loadu_ps(dst + i), _mm512_loadu_ps(src + i)));
    _mm512_storeu_ps(src + i, vz);
  }
  if (i < size) {
    const __mmask16 mask = TailMask16(static_cast<int>(size - i));
    _mm512_mask_storeu_ps(dst + i, mask,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst + i),
                                        _mm512_maskz_loadu_ps(mask, src + i)));
    _mm512_mask_storeu_ps(src + i, mask, vz);
  }
}

void ReduceScaleAndZero(float* dst, float* const* srcs, std::size_t nsrcs, std::size_t size,
                        float alpha) {
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 vz = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t s = 0; s < nsrcs; ++s) {
      acc = _mm512_add_ps(acc, _mm512_loadu_ps(srcs[s] + i));
      _mm512_storeu_ps(srcs[s] + i, vz);
    }
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(acc, va));
  }
  if (i < size) {
    const __mmask16 mask = TailMask16(static_cast<int>(size - i));
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t s = 0; s < nsrcs; ++s) {
      acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(mask, srcs[s] + i));
      _mm512_mask_storeu_ps(srcs[s] + i, mask, vz);
    }
    _mm512_mask_storeu_ps(dst + i, mask, _mm512_mul_ps(acc, va));
  }
}

}  // namespace m3::ml::kernels::avx512

#define M3_KERNEL_TIER avx512
#include "ml/kernels_shared.inc"

#else  // !M3_KERNELS_AVX512 — stub tier; see kernels_avx2.cc.

namespace m3::ml::kernels::avx512 {

extern const KernelTable* const kKernels = nullptr;

}  // namespace m3::ml::kernels::avx512

#endif
