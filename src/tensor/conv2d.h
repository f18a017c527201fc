// 2-D convolution on the fp32 GEMM backends (tensor/gemm.h) or the int8
// qgemm_u8 (tensor/qgemm.h), with full backward (input gradient, weight
// gradient, bias gradient).  A stride-1 packed forward reads its input in
// place through sconv_direct; strided and reference forwards, the int8
// forward and the backward pass lower through im2col.
// Padded-input, column and packing workspaces live in the thread-local
// scratch arena (runtime/scratch.h), so steady-state calls do not touch
// the allocator.
//
// This single kernel carries the backbone, the detection heads, and the
// AdaScale regressor streams, so correctness is verified by numerical
// gradient checks in tests/conv2d_test.cpp and backend-equivalence tests in
// tests/gemm_test.cpp.
#pragma once

#include "runtime/exec_plan.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"

namespace ada {

/// Static convolution geometry.
struct ConvSpec {
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 3;   ///< square kernel, k x k
  int stride = 1;
  int pad = 1;      ///< symmetric zero padding
  int dilation = 1; ///< tap spacing; k=3, dilation=d spans 2d+1 input pixels

  /// Effective kernel extent including dilation gaps.
  int effective_kernel() const { return dilation * (kernel - 1) + 1; }

  /// Output spatial size for the given input size (floor semantics).
  int out_dim(int in_dim) const {
    return (in_dim + 2 * pad - effective_kernel()) / stride + 1;
  }

  /// Number of weight elements: out_c * in_c * k * k.
  std::size_t weight_count() const {
    return static_cast<std::size_t>(out_channels) * in_channels * kernel *
           kernel;
  }
};

/// y = conv(x, w) + b.  x is (N, in_c, H, W); each image is written
/// straight into its NCHW block of y.  w is (out_c, in_c, k, k);
/// b is (1, out_c, 1, 1) and may be empty (no bias).  y is resized as
/// needed.  With fuse_relu the ReLU is applied inside the GEMM write-out
/// (y = max(conv(x,w)+b, 0)), bit-identical to applying it afterwards but
/// without the extra pass.  `backend` picks the fp32 GEMM (kDefault
/// resolves the process default; planned forwards pass the backend their
/// ExecutionPlan resolved).  On the packed backend a stride-1 conv runs
/// sconv_direct, which reads zero-padded copies of the images in place
/// instead of building im2col columns and splits the whole batch's tiles
/// across the pool, with the same bytes (tests/conv2d_test.cpp); other
/// forwards lower and multiply one image at a time.
void conv2d_forward(const ConvSpec& spec, const Tensor& x, const Tensor& w,
                    const Tensor& b, Tensor* y, bool fuse_relu = false,
                    GemmBackend backend = GemmBackend::kDefault);

/// INT8 forward: y = dequant(conv(quant(x), wq)) + b, same geometry and
/// batching contract as conv2d_forward (N > 1 lowers onto one qgemm_u8;
/// the fused-ReLU epilogue applies in the integer kernel's write-out).  x
/// is quantized once and its bytes lowered, byte-identical to quantizing
/// the fp32 im2col columns (tests/qgemm_test.cpp).  `qw`
/// holds the frozen per-output-channel weights plus the calibrated input
/// activation qparams (qw.rows == out_c, qw.cols == in_c * k * k); bias
/// stays fp32.  Because integer accumulation is exact, outputs are
/// bit-identical run-to-run, across thread counts, and across batch
/// compositions (tests/qgemm_test.cpp).
void conv2d_forward_int8(const ConvSpec& spec, const Tensor& x,
                         const QuantizedWeights& qw, const Tensor& b,
                         Tensor* y, bool fuse_relu = false);

/// Backward pass: accumulates dL/dx into dx (if non-null), dL/dw into dw and
/// dL/db into db (if non-null).  x must be the forward input, dy the gradient
/// of the forward output.
void conv2d_backward(const ConvSpec& spec, const Tensor& x, const Tensor& w,
                     const Tensor& dy, Tensor* dx, Tensor* dw, Tensor* db);

/// Multiply-accumulate count for one forward pass at the given input size.
/// Used by benches to report the FLOP-proportional cost of each image scale.
long long conv2d_macs(const ConvSpec& spec, int in_h, int in_w);

/// Scratch-arena floats one conv2d_forward / conv2d_forward_int8 call with
/// this geometry and kernel choice claims on the calling thread (a stride-1
/// packed conv's padded images, offset table and A panels; otherwise the
/// int8 path's quantized input, the im2col columns — bytes for int8 — the
/// int8 batched-output staging buffer, and the underlying GEMM's packing
/// panels).  Execution plans record this per layer so the arena can be
/// pre-sized once to the exact steady-state peak.
std::size_t conv2d_forward_workspace_floats(const ConvSpec& spec, int n,
                                            int in_h, int in_w,
                                            KernelKind kernel);

}  // namespace ada
