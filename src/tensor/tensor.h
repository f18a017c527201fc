// Dense float tensor in NCHW layout.
//
// This is the numeric substrate for the whole reproduction: the detector
// backbone, the detection heads, and the AdaScale scale regressor all run on
// these tensors.  Design choices:
//   * float32 only — matches what the paper's MXNet models use in inference.
//   * contiguous row-major storage, shape up to 4 dims (N, C, H, W); lower-
//     rank tensors store trailing singleton dims explicitly.
//   * value semantics with cheap moves; no views/strides — kernels that need
//     sub-tensor access (conv, pooling) index explicitly, which keeps every
//     kernel auditable.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <string>
#include <vector>

namespace ada {

/// Allocator that hands out 64-byte (cache-line / SIMD-register) aligned
/// storage.  Tensor data lives behind it so the packed GEMM kernels and
/// im2col row copies operate on aligned cache lines.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const { return false; }
};

/// Aligned float buffer used by Tensor (and anything sharing its storage).
using AlignedFloatVec = std::vector<float, AlignedAllocator<float>>;

/// 4-D float tensor (N, C, H, W). Rank-1/2 data uses singleton dims.
class Tensor {
 public:
  Tensor() : n_(0), c_(0), h_(0), w_(0) {}

  /// Allocates an n×c×h×w tensor initialized to zero.
  Tensor(int n, int c, int h, int w)
      : n_(n), c_(c), h_(h), w_(w),
        data_(static_cast<std::size_t>(n) * c * h * w, 0.0f) {
    assert(n >= 0 && c >= 0 && h >= 0 && w >= 0);
  }

  /// Convenience: 1×c×h×w (single image / feature map).
  static Tensor chw(int c, int h, int w) { return Tensor(1, c, h, w); }

  /// Convenience: flat vector of length len stored as 1×len×1×1.
  static Tensor vec(int len) { return Tensor(1, len, 1, 1); }

  /// Stacks same-shaped (1,C,H,W) images into one (N,C,H,W) batch tensor.
  /// This is how cross-stream batching (AdaScalePipeline::serve_backbone)
  /// coalesces frames that target the same scale into one backbone forward.
  static Tensor batch_of(const std::vector<const Tensor*>& images);

  /// Copy of image `n` as a (1,C,H,W) tensor (batch → single-image).
  Tensor image(int n) const;

  /// Floats (not bytes) of one image: C*H*W.  Image n's data starts at
  /// data() + n * image_size().
  std::size_t image_size() const {
    return static_cast<std::size_t>(c_) * h_ * w_;
  }

  int n() const { return n_; }
  int c() const { return c_; }
  int h() const { return h_; }
  int w() const { return w_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// True if shapes match exactly.
  bool same_shape(const Tensor& o) const {
    return n_ == o.n_ && c_ == o.c_ && h_ == o.h_ && w_ == o.w_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  AlignedFloatVec& storage() { return data_; }
  const AlignedFloatVec& storage() const { return data_; }

  float& at(int n, int c, int h, int w) {
    return data_[offset(n, c, h, w)];
  }
  float at(int n, int c, int h, int w) const {
    return data_[offset(n, c, h, w)];
  }

  /// Flat accessors for rank-1 use.
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Sets every element to v.
  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reinterprets the tensor with a new shape of equal element count.
  void reshape(int n, int c, int h, int w) {
    assert(static_cast<std::size_t>(n) * c * h * w == data_.size());
    n_ = n; c_ = c; h_ = h; w_ = w;
  }

  /// Sum of all elements.
  double sum() const;
  /// Mean of all elements (0 for empty).
  double mean() const;
  /// Max absolute element (0 for empty).
  float abs_max() const;

  /// Human-readable shape, e.g. "[1,48,18,25]".
  std::string shape_str() const;

 private:
  std::size_t offset(int n, int c, int h, int w) const {
    assert(n >= 0 && n < n_ && c >= 0 && c < c_ && h >= 0 && h < h_ &&
           w >= 0 && w < w_);
    return ((static_cast<std::size_t>(n) * c_ + c) * h_ + h) * w_ + w;
  }

  int n_, c_, h_, w_;
  AlignedFloatVec data_;
};

}  // namespace ada
