// INT8 quantized GEMM backend for the inference hot path.
//
// Third backend behind the ADASCALE_GEMM switch (see tensor/gemm.h):
// weights are stored once as signed 8-bit integers with a *per-output-
// channel* symmetric scale (dequant = q * scale[row]); activations are
// quantized on the fly to unsigned 8-bit with a *per-tensor* asymmetric
// scale + zero point captured by an offline calibration pass (see
// Conv2dLayer::quantize / tools/calibrate).  The kernel accumulates
// u8 x s8 products into int32 and the epilogue dequantizes straight to
// fp32 — folding the zero-point correction, the per-channel scale, the
// fp32 bias, and the optional ReLU into the tile write-out, so the rest
// of the network never sees an integer tensor.
//
// The B operand reaches the kernel as bytes.  quantize_u8_span quantizes
// an fp32 span once; qgemm_u8 takes a row-major u8 matrix and its panel
// packing only moves bytes.  The int8 conv quantizes its input tensor once
// and lowers the bytes (tensor/conv2d.cpp); the fp32-operand qgemm is a
// thin wrapper that quantizes its view, then calls qgemm_u8.
//
// The micro-kernel processes the reduction axis in k-groups: a vpmaddwd
// pair-wise s16 kernel on AVX2/AVX-512 (u8/s8 widened to s16, adjacent-k
// multiply-add straight into s32 — two multiplies per lane-instruction)
// and a vpdpbusd quad kernel where AVX-512 VNNI exists (four u8 x s8
// products per lane-instruction); the portable fallback applies the same
// k-pairing in plain s32.  Dispatch is CPUID-gated like the fp32 kernel
// and capped by ADASCALE_ISA (tensor/gemm.h: kernel_isa_cap).
//
// Determinism: integer accumulation is exact (no rounding, and nothing
// saturates: pair/quad partial sums are bounded far inside s32 by the u8
// x s8 operand range), so the result is independent of blocking, k-group
// size, stripe scheduling, thread count, and the dispatched SIMD width;
// the fp32 epilogue applies a fixed per-element expression.  INT8 outputs
// are therefore bit-identical run-to-run, across ADASCALE_THREADS values,
// across ADASCALE_ISA levels, and across machines — a stronger guarantee
// than the fp32 packed kernel, which is bit-stable only per compile.
//
// Overflow: one u8 x s8 product is at most 255 * 127 = 32385, so a full
// ascending-K chain fits int32 for K < 2^31 / 32385 ≈ 66k.  Every GEMM in
// this codebase has K = in_c * k * k ≤ a few hundred; qgemm asserts the
// bound rather than widening to int64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.h"

namespace ada {

/// Asymmetric u8 quantization parameters for one activation tensor:
/// real = (q - zero_point) * scale, q in [0, 255].
struct QuantParams {
  float scale = 1.0f;
  int zero_point = 0;
};

/// Picks u8 qparams covering the observed activation range [lo, hi].
/// The range is widened to include 0 (so zero padding maps exactly onto
/// zero_point) and degenerate ranges fall back to scale 1 — the scale is
/// never 0 or negative.
QuantParams choose_qparams(float lo, float hi);

/// Streaming activation statistics gathered during a calibration pass:
/// exact min/max plus a fixed-bin histogram of |x| whose cap doubles
/// (merging bin pairs) whenever a larger value arrives, so a percentile
/// clip can be computed over millions of activations in O(kBins) memory.
/// Clipping the top fraction of mass shrinks the quantization step for
/// the dense bulk of activations at the cost of saturating rare outliers
/// — the standard post-training-quantization trade (out-of-range values
/// clamp, they never wrap).
class RangeObserver {
 public:
  void observe(const float* x, std::size_t n);
  bool seen() const { return total_ > 0; }
  float min() const { return min_; }
  float max() const { return max_; }

  /// Smallest magnitude m such that at least `fraction` of the observed
  /// |x| mass lies in [0, m] (bin-edge resolution).  fraction >= 1 returns
  /// the exact maximum.
  float percentile_hi(double fraction) const;

 private:
  static constexpr int kBins = 2048;
  void grow(float a);

  float min_ = 0.0f, max_ = 0.0f;
  float cap_ = 0.0f;  ///< histogram upper edge; 0 until first observation
  long long total_ = 0;
  std::vector<long long> hist_;
};

/// Fraction of |activation| mass the calibration clip keeps (the rest
/// saturates).  Default 0.9995; override with the ADASCALE_INT8_CLIP
/// environment variable (read once through parse_clip_fraction; 1 disables
/// clipping entirely).
double calibration_clip_fraction();

/// Reads an ADASCALE_INT8_CLIP value.  Null (unset) gives `fallback`; a
/// whole-string decimal of digits and at most one point ("0.999", ".5",
/// "1") in (0, 1] gives that fraction.  Anything else ("0.5x", " 0.5",
/// "+0.5", "5e-1", "nan", "0", "1.5", "") prints a stderr warning naming
/// the value and the fraction used, then gives `fallback`.
double parse_clip_fraction(const char* env, double fallback);

/// q = clamp(round(x / scale) + zero_point, 0, 255).  Values outside the
/// calibrated range saturate — the quantize/dequantize round trip is
/// bounded by scale/2 only inside [lo, hi] (tests/qgemm_test.cpp).  The
/// exact recipe: multiply by 1/scale, round half to even, add the zero
/// point, then clamp with q > 0 ? q : 0 and q < 255 ? q : 255, so NaN
/// gives 0, +inf 255 and -inf 0.
std::uint8_t quantize_u8(float x, const QuantParams& p);

/// quantize_u8 over n contiguous floats into out[0, n), byte-identical to
/// calling it per element: SIMD lanes of the same recipe, then a scalar
/// tail.  Dispatched per ISA like the qgemm kernels (ADASCALE_ISA and
/// set_qgemm_isa reach it).
void quantize_u8_span(const float* x, std::size_t n, const QuantParams& p,
                      std::uint8_t* out);

/// Inverse map for tests and diagnostics: (q - zero_point) * scale.
float dequantize_u8(std::uint8_t q, const QuantParams& p);

/// Frozen INT8 weight matrix plus everything the epilogue needs: one
/// symmetric scale per row (output channel), the per-row element sum
/// (zero-point correction term), and the activation qparams captured at
/// calibration time.
struct QuantizedWeights {
  int rows = 0;  ///< output channels (GEMM M)
  int cols = 0;  ///< reduction length (GEMM K)
  std::vector<std::int8_t> q;       ///< rows x cols, row-major
  std::vector<float> scale;         ///< per row; dequant = q * scale[row]
  std::vector<std::int32_t> row_sum;  ///< per row: sum_k q[row, k]
  QuantParams act;                  ///< input-activation quantization

  bool empty() const { return q.empty(); }
};

/// Quantizes a rows x cols fp32 weight matrix with per-row symmetric
/// scales: scale[r] = absmax(row r) / 127, q = round(w / scale) clamped to
/// [-127, 127].  An all-zero row gets scale 1 (never 0), q all zero.
/// `act` is stored alongside for the epilogue.
QuantizedWeights quantize_weights(const float* w, int rows, int cols,
                                  const QuantParams& act);

/// C(MxN fp32, leading dim ldc) = dequant( Wq(MxK s8) * B(KxN u8) ).
///
/// B is a row-major byte matrix with leading dimension ldb whose bytes are
/// already quantized with W.act (quantize_u8_span); packing only moves
/// them into the kernel's k-group panels.  The epilogue computes, per
/// element:
///
///   C[m][j] = (acc[m][j] - act.zero_point * row_sum[m])
///             * (act.scale * scale[m]) + bias[m]     (then ReLU if relu)
///
/// `bias` (per row, may be null) stays fp32.  Parallelizes over disjoint
/// column stripes via the runtime pool; see header comment for the
/// determinism contract.  M must equal W.rows and K must equal W.cols.
void qgemm_u8(int M, int N, int K, const QuantizedWeights& W,
              const std::uint8_t* B, std::ptrdiff_t ldb, float* C, int ldc,
              const float* bias, bool relu);

/// qgemm_u8 over an fp32 operand: quantizes the strided view B (same
/// GemmMat convention as sgemm) once with W.act into a dense K x N byte
/// matrix, then runs qgemm_u8 on it — the entry for callers that hold
/// floats, such as linear_forward_int8.
void qgemm(int M, int N, int K, const QuantizedWeights& W, const GemmMat& B,
           float* C, int ldc, const float* bias, bool relu);

/// Scratch-arena floats one qgemm_u8 call with these shapes claims on the
/// calling thread (epilogue row scales, k-grouped A panels, one B stripe
/// panel), rounded the way the arena rounds — the qgemm counterpart of
/// sgemm_workspace_floats, recorded by execution plans.
std::size_t qgemm_u8_workspace_floats(int M, int N, int K);

/// qgemm_u8_workspace_floats plus the wrapper's K x N quantized operand.
std::size_t qgemm_workspace_floats(int M, int N, int K);

/// Name of the quantized micro-kernel the dispatcher picked on this
/// machine: "vnni" | "avx512" | "avx2" | "generic" (native capability
/// capped by ADASCALE_ISA — see kernel_isa_cap in tensor/gemm.h), or the
/// active set_qgemm_isa override.
const char* qgemm_kernel_isa();

/// Test/bench seam: forces the quantized kernel onto a specific ISA body
/// so one process can compare the vpmaddwd and vpdpbusd kernels side by
/// side (the ADASCALE_ISA env can only cap a whole process).  Requests
/// above the CPU's *native* capability abort loudly; requests above the
/// env cap are allowed (a capped process may still measure everything the
/// hardware has).  Process-global — not for serving paths.
void set_qgemm_isa(KernelIsa isa);

/// Restores the normal (env-capped) quantized-kernel dispatch.
void clear_qgemm_isa();

}  // namespace ada
