// Elementwise and reduction primitives shared by the NN layers.
#pragma once

#include "tensor/tensor.h"

namespace ada {

/// y += alpha * x (shapes must match).
void axpy(float alpha, const Tensor& x, Tensor* y);

/// y = max(x, 0).
void relu_forward(const Tensor& x, Tensor* y);

/// dx = dy ⊙ [x > 0]; accumulates into dx.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor* dx);

/// In-place scale: x *= alpha.
void scale(Tensor* x, float alpha);

/// Global average pooling: (N,C,H,W) -> (N,C,1,1).
void global_avg_pool_forward(const Tensor& x, Tensor* y);

/// Backward of global average pooling; accumulates into dx.
void global_avg_pool_backward(const Tensor& x_shape_like, const Tensor& dy,
                              Tensor* dx);

/// 2x2 max pooling with stride 2 (floor semantics).  Each window starts
/// at best = -1e30 and takes a tap v when v > best, in the order (0,0),
/// (0,1), (1,0), (1,1): NaN never wins, a ±0 tie keeps the first tap, and
/// a window with no tap above -1e30 gives -1e30.  When `argmax` is non-null it
/// receives the winning taps' flat input indices (same shape as y) for the
/// backward pass; null computes the values only (inference).
void maxpool2_forward(const Tensor& x, Tensor* y, std::vector<int>* argmax);

/// Backward of 2x2 max pooling; accumulates into dx using recorded argmax.
void maxpool2_backward(const Tensor& dy, const std::vector<int>& argmax,
                       Tensor* dx);

/// Numerically-stable softmax over the C dimension of a (1,C,1,1) vector or
/// row-wise over a (N,C,1,1) batch.
void softmax_rows(const Tensor& x, Tensor* y);

}  // namespace ada
