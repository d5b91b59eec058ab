#include "ml/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ml/autograd.h"
#include "ml/tensor.h"
#include "util/rng.h"

namespace m3::ml {
namespace {

using kernels::KernelImpl;

std::vector<float> RandomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

template <typename GotVec, typename WantVec>
void ExpectAllNear(const GotVec& got, const WantVec& want, float tol, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol * std::max(1.0f, std::abs(want[i])))
        << what << " at flat index " << i;
  }
}

// Restores the previously active implementation on scope exit so tests
// can't leak a forced impl into each other.
class ImplGuard {
 public:
  explicit ImplGuard(KernelImpl impl) : prev_(kernels::GetKernelImpl()) {
    installed_ = kernels::SetKernelImpl(impl);
  }
  ~ImplGuard() { kernels::SetKernelImpl(prev_); }
  KernelImpl installed() const { return installed_; }

 private:
  KernelImpl prev_;
  KernelImpl installed_;
};

std::vector<KernelImpl> AvailableImpls() {
  std::vector<KernelImpl> impls;
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    if (kernels::KernelImplAvailable(impl)) impls.push_back(impl);
  }
  return impls;
}

// Shapes chosen to cover ragged tiles: below, at, and across every
// implementation's blocking (AVX2 strips 24/16/8 + <8 mask,
// GEMV strips 64/32/8; AVX-512 strips 48/32/16 + k-mask, GEMV 128/64/16),
// plus the model's real shapes (seq x feat, head fc1/fc2, seq_in_proj).
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},     {1, 7, 5},      {3, 5, 7},    {2, 5, 9},    {4, 64, 64},
    {5, 67, 129},  {8, 96, 96},    {2, 33, 400}, {17, 40, 70}, {3, 100, 23},
    {9, 17, 49},   {4, 3, 48},     {5, 130, 33}, {7, 12, 31},  {1, 256, 400},
    {1, 31, 67},   {1, 9, 130},    {1, 1127, 256}, {6, 1010, 96}, {8, 1010, 96},
};

// The blocked/SIMD kernels reassociate the reduction over the inner
// dimension (and FMA contracts rounding steps), so the gap to the naive
// order grows ~sqrt(len): scale the 1e-5 tolerance accordingly.
float GemmTol(int len) {
  return 1e-5f * std::max(1.0f, std::sqrt(static_cast<float>(len) / 64.0f));
}

TEST(Kernels, GemmAccumParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    ASSERT_EQ(guard.installed(), impl);
    Rng rng(11);
    for (const Shape& s : kShapes) {
      const std::vector<float> a = RandomVec(static_cast<std::size_t>(s.m) * s.k, rng);
      const std::vector<float> b = RandomVec(static_cast<std::size_t>(s.k) * s.n, rng);
      const std::vector<float> c0 = RandomVec(static_cast<std::size_t>(s.m) * s.n, rng);
      std::vector<float> c_got = c0, c_ref = c0;
      kernels::GemmAccum(a.data(), b.data(), c_got.data(), s.m, s.k, s.n);
      kernels::GemmAccumNaive(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n);
      ExpectAllNear(c_got, c_ref, GemmTol(s.k),
                    (std::string("GemmAccum/") + kernels::KernelImplName(impl)).c_str());
    }
  }
}

// The row contract of kernels.h that batched inference stacks on: row r of
// C depends only on row r of A. Every row of an M-row product must equal,
// bit for bit, the m = 1 call on that row alone (an aligned fresh copy, as
// a one-path forward has it), for every M, with unaligned A rows, over the
// default model's GEMM shapes (in_proj, Q/K/V/O, ff1, ff2, head_fc1,
// head_fc2), on every tier.
TEST(Kernels, GemmAccumRowsMatchSingleRowCall) {
  struct KN {
    int k, n;
  };
  const KN kModelShapes[] = {{1010, 96}, {96, 96}, {96, 192}, {192, 96}, {1127, 256}, {256, 400}};
  std::vector<int> row_counts;
  for (int m = 1; m <= 130; ++m) row_counts.push_back(m);
  for (int m : {256, 400, 601}) row_counts.push_back(m);
  const int max_m = row_counts.back();
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(17);
    for (const KN& s : kModelShapes) {
      const std::size_t k = static_cast<std::size_t>(s.k), n = static_cast<std::size_t>(s.n);
      const std::vector<float> b = RandomVec(k * n, rng);
      const std::vector<float> c0 = RandomVec(static_cast<std::size_t>(max_m) * n, rng);
      // One float past an aligned start: every row of A is unaligned.
      FloatVec a_buf(1 + static_cast<std::size_t>(max_m) * k);
      for (float& v : a_buf) v = static_cast<float>(rng.Normal(0.0, 1.0));
      const float* a = a_buf.data() + 1;

      std::vector<float> single(static_cast<std::size_t>(max_m) * n);
      for (int r = 0; r < max_m; ++r) {
        FloatVec row(a + r * k, a + (r + 1) * k);
        std::copy_n(c0.begin() + r * n, n, single.begin() + r * n);
        kernels::GemmAccum(row.data(), b.data(), single.data() + r * n, 1, s.k, s.n);
      }
      int differing = 0;
      for (int m : row_counts) {
        std::vector<float> c(c0.begin(), c0.begin() + m * n);
        kernels::GemmAccum(a, b.data(), c.data(), m, s.k, s.n);
        for (std::size_t i = 0; i < c.size(); ++i) differing += c[i] != single[i] ? 1 : 0;
      }
      EXPECT_EQ(differing, 0) << kernels::KernelImplName(impl) << " k=" << s.k << " n=" << s.n;
    }
  }
}

TEST(Kernels, GemmAccumNTParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(12);
    for (const Shape& s : kShapes) {
      const std::vector<float> dc = RandomVec(static_cast<std::size_t>(s.m) * s.n, rng);
      const std::vector<float> b = RandomVec(static_cast<std::size_t>(s.k) * s.n, rng);
      const std::vector<float> da0 = RandomVec(static_cast<std::size_t>(s.m) * s.k, rng);
      std::vector<float> da_got = da0, da_ref = da0;
      kernels::GemmAccumNT(dc.data(), b.data(), da_got.data(), s.m, s.n, s.k);
      kernels::GemmAccumNTNaive(dc.data(), b.data(), da_ref.data(), s.m, s.n, s.k);
      ExpectAllNear(da_got, da_ref, GemmTol(s.n),
                    (std::string("GemmAccumNT/") + kernels::KernelImplName(impl)).c_str());
    }
  }
}

TEST(Kernels, GemmAccumTNParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(13);
    for (const Shape& s : kShapes) {
      const std::vector<float> a = RandomVec(static_cast<std::size_t>(s.m) * s.k, rng);
      const std::vector<float> dc = RandomVec(static_cast<std::size_t>(s.m) * s.n, rng);
      const std::vector<float> db0 = RandomVec(static_cast<std::size_t>(s.k) * s.n, rng);
      std::vector<float> db_got = db0, db_ref = db0;
      kernels::GemmAccumTN(a.data(), dc.data(), db_got.data(), s.m, s.k, s.n);
      kernels::GemmAccumTNNaive(a.data(), dc.data(), db_ref.data(), s.m, s.k, s.n);
      ExpectAllNear(db_got, db_ref, GemmTol(s.m),
                    (std::string("GemmAccumTN/") + kernels::KernelImplName(impl)).c_str());
    }
  }
}

// SIMD kernels must tolerate any pointer alignment: run one ragged shape
// with every operand shifted off its allocation by one float.
TEST(Kernels, GemmParityUnalignedPointers) {
  const Shape s = {5, 67, 129};
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(21);
    std::vector<float> a = RandomVec(static_cast<std::size_t>(s.m) * s.k + 1, rng);
    std::vector<float> b = RandomVec(static_cast<std::size_t>(s.k) * s.n + 1, rng);
    std::vector<float> c0 = RandomVec(static_cast<std::size_t>(s.m) * s.n + 1, rng);
    std::vector<float> c_got = c0, c_ref = c0;
    kernels::GemmAccum(a.data() + 1, b.data() + 1, c_got.data() + 1, s.m, s.k, s.n);
    kernels::GemmAccumNaive(a.data() + 1, b.data() + 1, c_ref.data() + 1, s.m, s.k, s.n);
    ExpectAllNear(c_got, c_ref, GemmTol(s.k), "GemmAccum unaligned");
  }
}

TEST(Kernels, GemmAgainstHandComputedValues) {
  // [2,3] x [3,2] sanity check with exact values, per implementation.
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    const std::vector<float> a = {1, 2, 3, 4, 5, 6};
    const std::vector<float> b = {1, 0, 0, 1, 1, 1};
    std::vector<float> c(4, 0.0f);
    kernels::GemmAccum(a.data(), b.data(), c.data(), 2, 3, 2);
    EXPECT_FLOAT_EQ(c[0], 4.0f);
    EXPECT_FLOAT_EQ(c[1], 5.0f);
    EXPECT_FLOAT_EQ(c[2], 10.0f);
    EXPECT_FLOAT_EQ(c[3], 11.0f);
  }
}

// Elementwise kernels across implementations. Sizes cover full vectors,
// masked tails, and sub-vector lengths.
const int kElemSizes[] = {1, 3, 7, 8, 9, 16, 31, 64, 100, 257};

TEST(Kernels, BiasAddRowsParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(31);
    for (int cols : kElemSizes) {
      const int rows = 3;
      const std::vector<float> x = RandomVec(static_cast<std::size_t>(rows) * cols, rng);
      const std::vector<float> bias = RandomVec(cols, rng);
      std::vector<float> got(static_cast<std::size_t>(rows) * cols);
      kernels::BiasAddRows(got.data(), x.data(), bias.data(), rows, cols);
      for (int r = 0; r < rows; ++r)
        for (int j = 0; j < cols; ++j)
          EXPECT_EQ(got[static_cast<std::size_t>(r) * cols + j],
                    x[static_cast<std::size_t>(r) * cols + j] + bias[j])
              << kernels::KernelImplName(impl) << " cols=" << cols;
    }
  }
}

TEST(Kernels, ColSumAccumParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(32);
    for (int cols : kElemSizes) {
      const int rows = 5;
      const std::vector<float> go = RandomVec(static_cast<std::size_t>(rows) * cols, rng);
      const std::vector<float> bg0 = RandomVec(cols, rng);
      std::vector<float> got = bg0, ref = bg0;
      kernels::ColSumAccum(got.data(), go.data(), rows, cols);
      for (int r = 0; r < rows; ++r)
        for (int j = 0; j < cols; ++j) ref[j] += go[static_cast<std::size_t>(r) * cols + j];
      // Row-order accumulation per column is part of the contract, so the
      // result is bitwise equal across implementations.
      for (int j = 0; j < cols; ++j)
        EXPECT_EQ(got[j], ref[j]) << kernels::KernelImplName(impl) << " cols=" << cols;
    }
  }
}

TEST(Kernels, AxpyAccumParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(33);
    for (int size : kElemSizes) {
      const std::vector<float> x = RandomVec(size, rng);
      const std::vector<float> y0 = RandomVec(size, rng);
      std::vector<float> got = y0;
      kernels::AxpyAccum(got.data(), x.data(), 0.37f, size);
      std::vector<float> ref = y0;
      for (int i = 0; i < size; ++i) ref[i] += 0.37f * x[i];
      // FMA contraction may differ from mul+add by one rounding step.
      ExpectAllNear(got, ref, 1e-6f, kernels::KernelImplName(impl));
    }
  }
}

TEST(Kernels, AddAndZeroParityAllImpls) {
  for (KernelImpl impl : AvailableImpls()) {
    ImplGuard guard(impl);
    Rng rng(34);
    for (int size : kElemSizes) {
      const std::vector<float> src0 = RandomVec(size, rng);
      const std::vector<float> dst0 = RandomVec(size, rng);
      std::vector<float> dst = dst0, src = src0;
      kernels::AddAndZero(dst.data(), src.data(), size);
      for (int i = 0; i < size; ++i) {
        EXPECT_EQ(dst[i], dst0[i] + src0[i]) << kernels::KernelImplName(impl);
        EXPECT_EQ(src[i], 0.0f);
      }
    }
  }
}

// ReduceScaleAndZero underpins thread-count determinism: it must be
// bitwise identical across implementations (lanes are independent
// elements; the per-element addition order is the srcs order).
TEST(Kernels, ReduceScaleAndZeroBitwiseAcrossImpls) {
  Rng rng(35);
  for (int size : kElemSizes) {
    std::vector<std::vector<float>> srcs0;
    for (int s = 0; s < 3; ++s) srcs0.push_back(RandomVec(size, rng));
    std::vector<float> ref;
    bool have_ref = false;
    for (KernelImpl impl : AvailableImpls()) {
      ImplGuard guard(impl);
      std::vector<std::vector<float>> srcs = srcs0;
      std::vector<float*> ptrs;
      for (auto& s : srcs) ptrs.push_back(s.data());
      std::vector<float> dst(size, -1.0f);
      kernels::ReduceScaleAndZero(dst.data(), ptrs.data(), ptrs.size(), size, 0.125f);
      for (auto& s : srcs)
        for (float v : s) EXPECT_EQ(v, 0.0f);
      if (!have_ref) {
        ref = dst;
        have_ref = true;
      } else {
        for (int i = 0; i < size; ++i)
          EXPECT_EQ(dst[i], ref[i]) << kernels::KernelImplName(impl) << " i=" << i;
      }
    }
  }
}

TEST(Kernels, FillRowsWithBias) {
  const std::vector<float> bias = {10, 20, 30};
  std::vector<float> out(6, -1.0f);
  kernels::FillRowsWithBias(out.data(), bias.data(), 2, 3);
  const std::vector<float> want = {10, 20, 30, 10, 20, 30};
  EXPECT_EQ(out, want);
}

TEST(Kernels, SoftmaxRowsNormalizes) {
  Rng rng(14);
  std::vector<float> data = RandomVec(3 * 17, rng);
  kernels::SoftmaxRows(data.data(), 3, 17);
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int j = 0; j < 17; ++j) sum += data[static_cast<std::size_t>(r) * 17 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

// The fused scaled softmax must match scale-then-softmax.
TEST(Kernels, SoftmaxScaledRowsMatchesScaleThenSoftmax) {
  Rng rng(41);
  const float scale = 0.5f;
  std::vector<float> fused = RandomVec(4 * 19, rng);
  std::vector<float> ref = fused;
  kernels::SoftmaxScaledRows(fused.data(), 4, 19, scale);
  for (float& v : ref) v *= scale;
  kernels::SoftmaxRows(ref.data(), 4, 19);
  ExpectAllNear(fused, ref, 1e-5f, "SoftmaxScaledRows");
}

TEST(Kernels, SoftmaxScaledBackwardMatchesScaledReference) {
  Rng rng(42);
  const int rows = 3, cols = 11;
  const float scale = 0.25f;
  std::vector<float> y = RandomVec(static_cast<std::size_t>(rows) * cols, rng);
  kernels::SoftmaxRows(y.data(), rows, cols);  // valid softmax output
  const std::vector<float> go = RandomVec(static_cast<std::size_t>(rows) * cols, rng);
  std::vector<float> ga_fused(static_cast<std::size_t>(rows) * cols, 0.0f);
  std::vector<float> ga_ref = ga_fused;
  kernels::SoftmaxScaledBackwardAccum(ga_fused.data(), go.data(), y.data(), rows, cols,
                                      scale);
  kernels::SoftmaxBackwardAccum(ga_ref.data(), go.data(), y.data(), rows, cols);
  for (float& v : ga_ref) v *= scale;
  ExpectAllNear(ga_fused, ga_ref, 1e-5f, "SoftmaxScaledBackwardAccum");
}

TEST(Kernels, ReluAndGeluBackwardIntoMatchAccum) {
  Rng rng(43);
  const int size = 57;
  const std::vector<float> x = RandomVec(size, rng);
  const std::vector<float> go = RandomVec(size, rng);
  std::vector<float> relu_into(size, -7.0f), relu_acc(size, 0.0f);
  kernels::ReluBackwardInto(relu_into.data(), go.data(), x.data(), size);
  kernels::ReluBackwardAccum(relu_acc.data(), go.data(), x.data(), size);
  ExpectAllNear(relu_into, relu_acc, 0.0f, "ReluBackwardInto");
  std::vector<float> gelu_into(size, -7.0f), gelu_acc(size, 0.0f);
  kernels::GeluBackwardInto(gelu_into.data(), go.data(), x.data(), size);
  kernels::GeluBackwardAccum(gelu_acc.data(), go.data(), x.data(), size);
  ExpectAllNear(gelu_into, gelu_acc, 1e-6f, "GeluBackwardInto");
}

// RMS-norm forward against a direct reference, backward against central
// finite differences of the forward pass.
TEST(Kernels, RmsNormForwardAndBackward) {
  Rng rng(44);
  const int rows = 3, cols = 13;
  const float eps = 1e-6f;
  const std::vector<float> x = RandomVec(static_cast<std::size_t>(rows) * cols, rng);
  const std::vector<float> gain = RandomVec(cols, rng);
  std::vector<float> out(static_cast<std::size_t>(rows) * cols);
  std::vector<float> inv_r(rows);
  kernels::RmsNormForward(out.data(), inv_r.data(), x.data(), gain.data(), rows, cols, eps);
  for (int r = 0; r < rows; ++r) {
    float ss = 0.0f;
    for (int j = 0; j < cols; ++j) {
      const float v = x[static_cast<std::size_t>(r) * cols + j];
      ss += v * v;
    }
    const float want_ir = 1.0f / std::sqrt(ss / cols + eps);
    EXPECT_NEAR(inv_r[r], want_ir, 1e-5f);
    for (int j = 0; j < cols; ++j)
      EXPECT_NEAR(out[static_cast<std::size_t>(r) * cols + j],
                  gain[j] * x[static_cast<std::size_t>(r) * cols + j] * want_ir, 1e-5f);
  }

  const std::vector<float> go = RandomVec(static_cast<std::size_t>(rows) * cols, rng);
  std::vector<float> gx(static_cast<std::size_t>(rows) * cols, 0.0f);
  std::vector<float> ggain(cols, 0.0f);
  kernels::RmsNormBackwardAccum(gx.data(), ggain.data(), go.data(), x.data(), gain.data(),
                                inv_r.data(), rows, cols);
  // loss = sum(out * go); d loss / d x and d loss / d gain by central diff.
  auto loss_at = [&](const std::vector<float>& xv, const std::vector<float>& gv) {
    std::vector<float> o(static_cast<std::size_t>(rows) * cols);
    std::vector<float> ir(rows);
    kernels::RmsNormForward(o.data(), ir.data(), xv.data(), gv.data(), rows, cols, eps);
    double acc = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i) acc += static_cast<double>(o[i]) * go[i];
    return acc;
  };
  const float h = 1e-3f;
  for (std::size_t i = 0; i < x.size(); i += 7) {
    std::vector<float> xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double want = (loss_at(xp, gain) - loss_at(xm, gain)) / (2.0 * h);
    EXPECT_NEAR(gx[i], want, 2e-2 * std::max(1.0, std::abs(want))) << "gx at " << i;
  }
  for (int j = 0; j < cols; j += 3) {
    std::vector<float> gp = gain, gm = gain;
    gp[j] += h;
    gm[j] -= h;
    const double want = (loss_at(x, gp) - loss_at(x, gm)) / (2.0 * h);
    EXPECT_NEAR(ggain[j], want, 2e-2 * std::max(1.0, std::abs(want))) << "ggain at " << j;
  }
}

// ----- implementation selection API -----

TEST(KernelDispatch, ParseKernelImpl) {
  KernelImpl impl;
  EXPECT_TRUE(kernels::ParseKernelImpl("naive", &impl));
  EXPECT_EQ(impl, KernelImpl::kNaive);
  EXPECT_TRUE(kernels::ParseKernelImpl("avx2", &impl));
  EXPECT_EQ(impl, KernelImpl::kAvx2);
  EXPECT_TRUE(kernels::ParseKernelImpl("avx512", &impl));
  EXPECT_EQ(impl, KernelImpl::kAvx512);
  // Older scripts may still set M3_KERNEL=tiled; it names no tier.
  EXPECT_FALSE(kernels::ParseKernelImpl("tiled", &impl));
  EXPECT_FALSE(kernels::ParseKernelImpl("sse9", &impl));
  EXPECT_FALSE(kernels::ParseKernelImpl("", &impl));
  EXPECT_FALSE(kernels::ParseKernelImpl(nullptr, &impl));
}

TEST(KernelDispatch, NameRoundTrip) {
  for (KernelImpl impl : {KernelImpl::kNaive, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    KernelImpl parsed;
    ASSERT_TRUE(kernels::ParseKernelImpl(kernels::KernelImplName(impl), &parsed));
    EXPECT_EQ(parsed, impl);
  }
}

TEST(KernelDispatch, ResolveHonorsAvailableRequests) {
  // naive is always available, so forcing it must stick.
  EXPECT_EQ(kernels::ResolveKernelImpl("naive"), KernelImpl::kNaive);
  // A script that still sets M3_KERNEL=tiled keeps running, on the best tier.
  EXPECT_EQ(kernels::ResolveKernelImpl("tiled"), kernels::ResolveKernelImpl(nullptr));
}

TEST(KernelDispatch, ResolveFallsBackForUnavailableOrGarbage) {
  const KernelImpl best = kernels::ResolveKernelImpl(nullptr);
  EXPECT_TRUE(kernels::KernelImplAvailable(best));
  // The default is the highest available tier in the order avx512 > avx2 > naive.
  KernelImpl want = KernelImpl::kNaive;
  for (KernelImpl impl : {KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    if (kernels::KernelImplAvailable(impl)) want = impl;
  }
  EXPECT_EQ(best, want);
  EXPECT_EQ(kernels::ResolveKernelImpl(""), best);
  EXPECT_EQ(kernels::ResolveKernelImpl("bogus-isa"), best);
  EXPECT_EQ(kernels::ResolveKernelImpl("tiled"), best);
  // Requesting every tier resolves to something available.
  for (const char* name : {"naive", "avx2", "avx512"}) {
    EXPECT_TRUE(kernels::KernelImplAvailable(kernels::ResolveKernelImpl(name))) << name;
  }
}

TEST(KernelDispatch, SetReturnsInstalledImpl) {
  const KernelImpl prev = kernels::GetKernelImpl();
  for (KernelImpl impl : AvailableImpls()) {
    EXPECT_EQ(kernels::SetKernelImpl(impl), impl);
    EXPECT_EQ(kernels::GetKernelImpl(), impl);
  }
  // Unavailable requests install the best available tier instead.
  if (!kernels::KernelImplAvailable(KernelImpl::kAvx512)) {
    const KernelImpl got = kernels::SetKernelImpl(KernelImpl::kAvx512);
    EXPECT_TRUE(kernels::KernelImplAvailable(got));
  }
  kernels::SetKernelImpl(prev);
}

// Graph-level parity: the same MatMul-heavy graph must produce matching
// values and parameter gradients under every kernel implementation.
TEST(Kernels, GraphParityAcrossImpls) {
  struct Result {
    float loss;
    Tensor grad_w, grad_b;
  };
  auto run = [](KernelImpl impl) -> Result {
    ImplGuard guard(impl);
    Rng rng(15);
    Parameter w("w", Tensor::Randn(13, 9, rng, 0.5f));
    Parameter b("b", Tensor::Randn(1, 9, rng, 0.5f));
    const Tensor x = Tensor::Randn(7, 13, rng, 1.0f);
    Tensor target = Tensor::Randn(7, 9, rng, 1.0f);
    Tensor mask(7, 9);
    mask.Fill(1.0f);
    Graph g;
    const Var h = g.Add(g.MatMul(g.Input(x), g.Param(&w)), g.Param(&b));
    const Var loss = g.MseLoss(g.Relu(h), g.Input(target), g.Input(mask));
    g.Backward(loss);
    return {g.value(loss).at(0, 0), w.grad, b.grad};
  };
  const Result ref = run(KernelImpl::kNaive);
  for (KernelImpl impl : AvailableImpls()) {
    if (impl == KernelImpl::kNaive) continue;
    const Result got = run(impl);
    EXPECT_NEAR(got.loss, ref.loss, 1e-5f) << kernels::KernelImplName(impl);
    ExpectAllNear(got.grad_w.vec(), ref.grad_w.vec(), 1e-5f, "grad_w");
    ExpectAllNear(got.grad_b.vec(), ref.grad_b.vec(), 1e-5f, "grad_b");
  }
}

}  // namespace
}  // namespace m3::ml
