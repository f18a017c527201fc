#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/thread_pool.h"

namespace ada {

namespace {

// Below this many elements the parallel_for dispatch costs more than the
// loop; the pool runs smaller tensors inline.
constexpr std::int64_t kElementwiseGrain = 1 << 14;

}  // namespace

void axpy(float alpha, const Tensor& x, Tensor* y) {
  assert(x.same_shape(*y));
  const float* xs = x.data();
  float* ys = y->data();
  parallel_for(static_cast<std::int64_t>(x.size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   ys[i] += alpha * xs[i];
               });
}

void relu_forward(const Tensor& x, Tensor* y) {
  if (!x.same_shape(*y)) *y = Tensor(x.n(), x.c(), x.h(), x.w());
  const float* xs = x.data();
  float* ys = y->data();
  parallel_for(static_cast<std::int64_t>(x.size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   ys[i] = xs[i] > 0.0f ? xs[i] : 0.0f;
               });
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor* dx) {
  assert(x.same_shape(dy) && x.same_shape(*dx));
  const float* xs = x.data();
  const float* ds = dy.data();
  float* out = dx->data();
  parallel_for(static_cast<std::int64_t>(x.size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   if (xs[i] > 0.0f) out[i] += ds[i];
               });
}

void scale(Tensor* x, float alpha) {
  float* xs = x->data();
  parallel_for(static_cast<std::int64_t>(x->size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) xs[i] *= alpha;
               });
}

void global_avg_pool_forward(const Tensor& x, Tensor* y) {
  if (y->n() != x.n() || y->c() != x.c() || y->h() != 1 || y->w() != 1)
    *y = Tensor(x.n(), x.c(), 1, 1);
  const float inv = 1.0f / static_cast<float>(x.h() * x.w());
  for (int n = 0; n < x.n(); ++n)
    for (int c = 0; c < x.c(); ++c) {
      double s = 0.0;
      for (int h = 0; h < x.h(); ++h)
        for (int w = 0; w < x.w(); ++w) s += x.at(n, c, h, w);
      y->at(n, c, 0, 0) = static_cast<float>(s) * inv;
    }
}

void global_avg_pool_backward(const Tensor& x_shape_like, const Tensor& dy,
                              Tensor* dx) {
  assert(dx->same_shape(x_shape_like));
  assert(dy.n() == x_shape_like.n() && dy.c() == x_shape_like.c());
  const float inv =
      1.0f / static_cast<float>(x_shape_like.h() * x_shape_like.w());
  for (int n = 0; n < dx->n(); ++n)
    for (int c = 0; c < dx->c(); ++c) {
      float g = dy.at(n, c, 0, 0) * inv;
      for (int h = 0; h < dx->h(); ++h)
        for (int w = 0; w < dx->w(); ++w) dx->at(n, c, h, w) += g;
    }
}

void maxpool2_forward(const Tensor& x, Tensor* y, std::vector<int>* argmax) {
  const int oh = x.h() / 2;
  const int ow = x.w() / 2;
  if (y->n() != x.n() || y->c() != x.c() || y->h() != oh || y->w() != ow)
    *y = Tensor(x.n(), x.c(), oh, ow);
  if (argmax != nullptr) argmax->assign(y->size(), 0);
  const std::size_t w = static_cast<std::size_t>(x.w());
  const int planes = x.n() * x.c();
  for (int p = 0; p < planes; ++p)
    for (int i = 0; i < oh; ++i) {
      // Flat indices of the window row pair's upper row and of its outputs.
      const std::size_t top =
          (static_cast<std::size_t>(p) * x.h() + 2 * i) * w;
      const std::size_t o = (static_cast<std::size_t>(p) * oh + i) * ow;
      const float* r0 = x.data() + top;
      const float* r1 = r0 + w;
      float* out = y->data() + o;
      if (argmax == nullptr) {
        // Selects rather than branches, so the row vectorizes; the rule
        // and tap order are the argmax loop's, so the values match it
        // byte for byte.
        for (int j = 0; j < ow; ++j) {
          float best = -1e30f;
          best = r0[2 * j] > best ? r0[2 * j] : best;
          best = r0[2 * j + 1] > best ? r0[2 * j + 1] : best;
          best = r1[2 * j] > best ? r1[2 * j] : best;
          best = r1[2 * j + 1] > best ? r1[2 * j + 1] : best;
          out[j] = best;
        }
        continue;
      }
      int* idx = argmax->data() + o;
      for (int j = 0; j < ow; ++j) {
        float best = -1e30f;
        std::size_t best_flat = 0;
        for (int di = 0; di < 2; ++di)
          for (int dj = 0; dj < 2; ++dj) {
            const std::size_t tap = di * w + 2 * j + dj;
            if (r0[tap] > best) {
              best = r0[tap];
              best_flat = top + tap;
            }
          }
        out[j] = best;
        idx[j] = static_cast<int>(best_flat);
      }
    }
}

void maxpool2_backward(const Tensor& dy, const std::vector<int>& argmax,
                       Tensor* dx) {
  assert(argmax.size() == dy.size());
  const float* g = dy.data();
  float* out = dx->data();
  for (std::size_t i = 0; i < dy.size(); ++i) out[argmax[i]] += g[i];
}

void softmax_rows(const Tensor& x, Tensor* y) {
  if (!x.same_shape(*y)) *y = Tensor(x.n(), x.c(), x.h(), x.w());
  assert(x.h() == 1 && x.w() == 1);
  for (int n = 0; n < x.n(); ++n) {
    float mx = -1e30f;
    for (int c = 0; c < x.c(); ++c) mx = std::max(mx, x.at(n, c, 0, 0));
    double denom = 0.0;
    for (int c = 0; c < x.c(); ++c)
      denom += std::exp(static_cast<double>(x.at(n, c, 0, 0) - mx));
    for (int c = 0; c < x.c(); ++c)
      y->at(n, c, 0, 0) = static_cast<float>(
          std::exp(static_cast<double>(x.at(n, c, 0, 0) - mx)) / denom);
  }
}

}  // namespace ada
