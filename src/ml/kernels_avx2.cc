// 256-bit AVX2/FMA kernel tier. Compiled with -mavx2 -mfma when the
// compiler supports it (src/CMakeLists.txt defines M3_KERNELS_AVX2); the
// dispatcher in kernels.cc additionally gates on runtime CPUID, so these
// bodies only ever execute on hardware with AVX2+FMA. The shared kernels
// (kernels_shared.inc) are built into this TU with the same flags. Without
// the define the TU exports a null table so the build stays portable.
//
// Layout notes shared by all three GEMM entry points:
//   - everything is row-major and accumulates into the output;
//   - loads/stores are unaligned (Tensor buffers are 64B-aligned, but
//     tile edges and sliced views are not);
//   - column remainders < 8 use maskload/maskstore, so kernels never read
//     or write past the end of a row.
#include "ml/kernels_impl.h"

#if defined(M3_KERNELS_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace m3::ml::kernels::avx2 {

namespace {

// Mask with the low `rem` (1..7) lanes enabled, for ragged row tails.
inline __m256i TailMask8(int rem) {
  alignas(32) static const std::int32_t kMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                     0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kMask + 8 - rem));
}

inline float HSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// ----------------------------------------------------------------------
// Generic register-tiled accumulation panel.
//
// Computes, for r in [0,MR) and a j-tile of NV*8 columns:
//   C[r, :] += sum_s a(r, s) * B[s, :]
// where a(r, s) = abase[r*ars + s*ass] and B row s starts at
// bbase + s*bstride. Instantiating the strides covers both GEMM flavors
// that broadcast from A:
//   forward C += A*B : a(r,s) = A[(i0+r)*k + s]      -> ars = k, ass = 1
//   TN  dB += A^T*dC : a(r,s) = A[s*k + (p0+r)]      -> ars = 1, ass = k
// The MR*NV accumulator tile lives in ymm registers for the whole s loop;
// MR=6, NV=2 uses 12 accumulators + 2 B vectors + 1 broadcast = 15 of the
// 16 ymm registers (an MR=4/NV=3 tile needs exactly 16 and measurably
// spills, costing ~35% on square_256).
// ----------------------------------------------------------------------
template <int MR, int NV>
inline void TileFull(const float* abase, std::ptrdiff_t ars, std::ptrdiff_t ass,
                     const float* bbase, std::ptrdiff_t bstride, int steps,
                     float* cbase, std::ptrdiff_t crs) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_loadu_ps(cbase + r * crs + v * 8);
  for (int s = 0; s < steps; ++s) {
    const float* brow = bbase + s * bstride;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(brow + v * 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(abase[r * ars + s * ass]);
      for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(cbase + r * crs + v * 8, acc[r][v]);
}

// Masked variant for the final <8 columns.
template <int MR>
inline void TileMasked(const float* abase, std::ptrdiff_t ars, std::ptrdiff_t ass,
                       const float* bbase, std::ptrdiff_t bstride, int steps,
                       float* cbase, std::ptrdiff_t crs, __m256i mask) {
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm256_maskload_ps(cbase + r * crs, mask);
  for (int s = 0; s < steps; ++s) {
    const __m256 bv = _mm256_maskload_ps(bbase + s * bstride, mask);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(abase[r * ars + s * ass]);
      acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) _mm256_maskstore_ps(cbase + r * crs, mask, acc[r]);
}

template <int NV>
inline void StripRows(const float* a, std::ptrdiff_t ars, std::ptrdiff_t ass, int rows,
                      const float* b, std::ptrdiff_t bstride, int steps, float* c,
                      std::ptrdiff_t crs) {
  int r0 = 0;
  for (; r0 + 6 <= rows; r0 += 6)
    TileFull<6, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs);
  switch (rows - r0) {
    case 5: TileFull<5, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    case 4: TileFull<4, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    case 3: TileFull<3, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    case 2: TileFull<2, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    case 1: TileFull<1, NV>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs); break;
    default: break;
  }
}

inline void StripRowsMasked(const float* a, std::ptrdiff_t ars, std::ptrdiff_t ass,
                            int rows, const float* b, std::ptrdiff_t bstride, int steps,
                            float* c, std::ptrdiff_t crs, __m256i mask) {
  int r0 = 0;
  for (; r0 + 6 <= rows; r0 += 6)
    TileMasked<6>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask);
  switch (rows - r0) {
    case 5: TileMasked<5>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    case 4: TileMasked<4>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    case 3: TileMasked<3>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    case 2: TileMasked<2>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    case 1: TileMasked<1>(a + r0 * ars, ars, ass, b, bstride, steps, c + r0 * crs, crs, mask); break;
    default: break;
  }
}

// Shared driver: C[r, j] += sum_s a(r,s) * B[s, j], j-strips of 16/8
// columns then a masked tail.
inline void GemmGeneric(const float* a, std::ptrdiff_t ars, std::ptrdiff_t ass, int rows,
                        const float* b, std::ptrdiff_t bstride, int steps, float* c,
                        std::ptrdiff_t crs, int n) {
  int j = 0;
  for (; j + 16 <= n; j += 16)
    StripRows<2>(a, ars, ass, rows, b + j, bstride, steps, c + j, crs);
  if (j + 8 <= n) {
    StripRows<1>(a, ars, ass, rows, b + j, bstride, steps, c + j, crs);
    j += 8;
  }
  if (j < n)
    StripRowsMasked(a, ars, ass, rows, b + j, bstride, steps, c + j, crs, TailMask8(n - j));
}

// ----------------------------------------------------------------------
// GEMV path for m == 1 (head_fc1 / head_fc2 and any 1-row slice):
// c[j] += sum_p a[p] * B[p, j]. A single output row lets the column tile
// widen to 64 (8 accumulators), so each broadcast of a[p] feeds 8 FMAs.
// ----------------------------------------------------------------------
template <int NV>
inline void GemvStrip(const float* a, const float* b, std::ptrdiff_t bstride, int k,
                      float* c) {
  __m256 acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_loadu_ps(c + v * 8);
  for (int p = 0; p < k; ++p) {
    const __m256 av = _mm256_set1_ps(a[p]);
    const float* brow = b + p * bstride;
    for (int v = 0; v < NV; ++v)
      acc[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + v * 8), acc[v]);
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_ps(c + v * 8, acc[v]);
}

inline void Gemv(const float* a, const float* b, float* c, int k, int n) {
  int j = 0;
  for (; j + 64 <= n; j += 64) GemvStrip<8>(a, b + j, n, k, c + j);
  for (; j + 32 <= n; j += 32) GemvStrip<4>(a, b + j, n, k, c + j);
  for (; j + 8 <= n; j += 8) GemvStrip<1>(a, b + j, n, k, c + j);
  if (j < n) {
    const __m256i mask = TailMask8(n - j);
    __m256 acc = _mm256_maskload_ps(c + j, mask);
    for (int p = 0; p < k; ++p)
      acc = _mm256_fmadd_ps(_mm256_set1_ps(a[p]), _mm256_maskload_ps(b + p * n + j, mask),
                            acc);
    _mm256_maskstore_ps(c + j, mask, acc);
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
  // a(r,s) = A[r*k + s]: row stride k, step stride 1.
  GemmGeneric(a, k, 1, m, b, n, k, c, n, n);
}

void GemmAccumTN(const float* a, const float* dc, float* db, int m, int k, int n) {
  if (m == 1) {
    // Rank-1 update: dB[p, :] += a[p] * dC[0, :], one axpy per dB row.
    for (int p = 0; p < k; ++p) AxpyAccum(db + static_cast<std::size_t>(p) * n, dc, a[p], n);
    return;
  }
  // dB rows are indexed by p: a(r,s) = A[s*k + (p0+r)]: row stride 1,
  // step stride k, steps = m, B rows are dC rows.
  GemmGeneric(a, 1, k, k, dc, n, m, db, n, n);
}

// dA[i, p] += dot(dC[i, :], B[p, :]): four B rows share each loaded dC
// segment, two accumulators per row hide FMA latency, and the four dots
// reduce to one __m128 via hadd so the 4 outputs store with one add.
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
      __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
      __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
      __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
      __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m256 g0 = _mm256_loadu_ps(gi + j);
        const __m256 g1 = _mm256_loadu_ps(gi + j + 8);
        a00 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b0 + j), a00);
        a01 = _mm256_fmadd_ps(g1, _mm256_loadu_ps(b0 + j + 8), a01);
        a10 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b1 + j), a10);
        a11 = _mm256_fmadd_ps(g1, _mm256_loadu_ps(b1 + j + 8), a11);
        a20 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b2 + j), a20);
        a21 = _mm256_fmadd_ps(g1, _mm256_loadu_ps(b2 + j + 8), a21);
        a30 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b3 + j), a30);
        a31 = _mm256_fmadd_ps(g1, _mm256_loadu_ps(b3 + j + 8), a31);
      }
      for (; j + 8 <= n; j += 8) {
        const __m256 g0 = _mm256_loadu_ps(gi + j);
        a00 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b0 + j), a00);
        a10 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b1 + j), a10);
        a20 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b2 + j), a20);
        a30 = _mm256_fmadd_ps(g0, _mm256_loadu_ps(b3 + j), a30);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; j < n; ++j) {
        const float g = gi[j];
        t0 += g * b0[j];
        t1 += g * b1[j];
        t2 += g * b2[j];
        t3 += g * b3[j];
      }
      // hadd pairs lanes within each 128-bit half; two rounds interleave
      // the four row sums, the final cross-half add yields [s0 s1 s2 s3].
      const __m256 h0 = _mm256_hadd_ps(_mm256_add_ps(a00, a01), _mm256_add_ps(a10, a11));
      const __m256 h1 = _mm256_hadd_ps(_mm256_add_ps(a20, a21), _mm256_add_ps(a30, a31));
      const __m256 h2 = _mm256_hadd_ps(h0, h1);
      const __m128 sums =
          _mm_add_ps(_mm256_castps256_ps128(h2), _mm256_extractf128_ps(h2, 1));
      const __m128 tails = _mm_setr_ps(t0, t1, t2, t3);
      _mm_storeu_ps(dai + p0, _mm_add_ps(_mm_loadu_ps(dai + p0), _mm_add_ps(sums, tails)));
    }
    for (; p0 < k; ++p0) {
      const float* bp = b + static_cast<std::size_t>(p0) * n;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      int j = 0;
      for (; j + 16 <= n; j += 16) {
        a0 = _mm256_fmadd_ps(_mm256_loadu_ps(gi + j), _mm256_loadu_ps(bp + j), a0);
        a1 = _mm256_fmadd_ps(_mm256_loadu_ps(gi + j + 8), _mm256_loadu_ps(bp + j + 8), a1);
      }
      for (; j + 8 <= n; j += 8)
        a0 = _mm256_fmadd_ps(_mm256_loadu_ps(gi + j), _mm256_loadu_ps(bp + j), a0);
      float s = HSum(_mm256_add_ps(a0, a1));
      for (; j < n; ++j) s += gi[j] * bp[j];
      dai[p0] += s;
    }
  }
}

// ----------------------------------------------------------------------
// Elementwise kernels. Scalar tails replicate the reference loops exactly,
// and lanes are independent elements, so these are bitwise identical to
// the naive tier's scalar loops except where FMA contraction applies
// (AxpyAccum), which the parity tests cover with a tolerance.
// ----------------------------------------------------------------------

void BiasAddRows(float* out, const float* x, const float* bias, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* orow = out + static_cast<std::size_t>(r) * cols;
    const float* xrow = x + static_cast<std::size_t>(r) * cols;
    int j = 0;
    for (; j + 8 <= cols; j += 8)
      _mm256_storeu_ps(orow + j,
                       _mm256_add_ps(_mm256_loadu_ps(xrow + j), _mm256_loadu_ps(bias + j)));
    for (; j < cols; ++j) orow[j] = xrow[j] + bias[j];
  }
}

void ColSumAccum(float* bg, const float* go, int rows, int cols) {
  int j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc = _mm256_loadu_ps(bg + j);
    for (int r = 0; r < rows; ++r)
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(go + static_cast<std::size_t>(r) * cols + j));
    _mm256_storeu_ps(bg + j, acc);
  }
  for (; j < cols; ++j) {
    float acc = bg[j];
    for (int r = 0; r < rows; ++r) acc += go[static_cast<std::size_t>(r) * cols + j];
    bg[j] = acc;
  }
}

void AxpyAccum(float* y, const float* x, float alpha, std::size_t size) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8)
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  for (; i < size; ++i) y[i] += alpha * x[i];
}

void AddAndZero(float* dst, float* src, std::size_t size) {
  const __m256 vz = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));
    _mm256_storeu_ps(src + i, vz);
  }
  for (; i < size; ++i) {
    dst[i] += src[i];
    src[i] = 0.0f;
  }
}

void ReduceScaleAndZero(float* dst, float* const* srcs, std::size_t nsrcs, std::size_t size,
                        float alpha) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vz = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t s = 0; s < nsrcs; ++s) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(srcs[s] + i));
      _mm256_storeu_ps(srcs[s] + i, vz);
    }
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(acc, va));
  }
  for (; i < size; ++i) {
    float acc = 0.0f;
    for (std::size_t s = 0; s < nsrcs; ++s) {
      acc += srcs[s][i];
      srcs[s][i] = 0.0f;
    }
    dst[i] = acc * alpha;
  }
}

}  // namespace m3::ml::kernels::avx2

#define M3_KERNEL_TIER avx2
#include "ml/kernels_shared.inc"

#else  // !M3_KERNELS_AVX2 — compiler cannot target AVX2; stub tier.

namespace m3::ml::kernels::avx2 {

// The dispatcher never selects a tier whose table is null.
extern const KernelTable* const kKernels = nullptr;

}  // namespace m3::ml::kernels::avx2

#endif
