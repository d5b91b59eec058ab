// Dense row-major float32 matrix. 1-D vectors are represented as [1, n].
// This is deliberately minimal: m3's model only needs 2-D tensors (the
// per-hop feature-map sequence is handled as a [hops, feat] matrix).
//
// Tensor storage is 64-byte aligned and padded to a 64-byte multiple (see
// AlignedAllocator): SIMD kernels get aligned full-width loads, and no two
// tensor allocations ever share a cache line, so per-thread gradient
// buffers written concurrently from different threads cannot false-share.
#pragma once

#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "util/rng.h"

namespace m3::ml {

/// Minimal aligned allocator: every allocation starts on an `Align`-byte
/// boundary and its byte size is rounded up to a multiple of `Align`.
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;
  // Explicit rebind: the default mechanism cannot rewrite the non-type
  // Align parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = (n * sizeof(T) + Align - 1) / Align * Align;
    return static_cast<T*>(::operator new(bytes, std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }
};

/// Backing storage for Tensor: cache-line aligned float vector.
using FloatVec = std::vector<float, AlignedAllocator<float, 64>>;

/// Grows `buf` to at least `n` floats (it never shrinks) and returns its
/// data: reusable scratch for the graph-free inference path.
inline float* GrowScratch(FloatVec& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols);
  /// Adopts `buf` as backing storage (arena reuse); buf.size() must equal
  /// rows * cols.
  Tensor(int rows, int cols, FloatVec&& buf);

  static Tensor Zeros(int rows, int cols) { return Tensor(rows, cols); }
  /// Gaussian init with the given standard deviation.
  static Tensor Randn(int rows, int cols, Rng& rng, float stddev);
  static Tensor FromVector(const std::vector<float>& v);  // [1, n]

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) { return data_[static_cast<std::size_t>(r) * cols_ + c]; }
  float at(int r, int c) const { return data_[static_cast<std::size_t>(r) * cols_ + c]; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  FloatVec& vec() { return data_; }
  const FloatVec& vec() const { return data_; }

  /// Moves the backing buffer out (for arena reclamation), leaving the
  /// tensor empty.
  FloatVec ReleaseBuffer() {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  void Fill(float v);
  void AddInPlace(const Tensor& other);  // same shape

 private:
  int rows_ = 0;
  int cols_ = 0;
  FloatVec data_;
};

/// Named trainable parameter. Its training state (the gradient accumulator
/// and the Adam moments) is allocated, as zeros, only by the code that
/// trains: an empty grad, adam_m or adam_v means zero. A served model holds
/// values alone.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;    // empty until a gradient first reaches it
  Tensor adam_m;  // empty until the first optimizer step or a restore
  Tensor adam_v;

  Parameter() = default;
  Parameter(std::string n, Tensor v);

  /// Zero-fills grad, allocating it if it is empty.
  void ZeroGrad();
  /// Allocates each empty training tensor as zeros of value's shape.
  void AllocTrainingState();
};

/// How a freshly drawn parameter starts: Gaussian(0, stddev) when stddev
/// is positive, otherwise every value equal to `fill`.
struct Init {
  float stddev = 0.0f;
  float fill = 0.0f;
};

/// Where a layer's parameters come from. Each layer's one constructor asks
/// its source for every tensor, by name and shape, in a fixed order.
class ParamSource {
 public:
  virtual ~ParamSource() = default;
  virtual Parameter Take(std::string name, int rows, int cols, Init init) = 0;
};

/// Fresh parameters as `init` asks, Gaussians drawn from `rng` in the order
/// the tensors are taken (the model's default init).
class RandomParams final : public ParamSource {
 public:
  explicit RandomParams(Rng& rng) : rng_(rng) {}
  Parameter Take(std::string name, int rows, int cols, Init init) override;

 private:
  Rng& rng_;
};

}  // namespace m3::ml
