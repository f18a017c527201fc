// INT8 quantization primitives and the qgemm kernel (tensor/qgemm.h):
// round-trip error bounds, per-channel scale edge cases (all-zero channel,
// saturating outliers), agreement with a fake-quantized fp32 reference
// GEMM on odd shapes, the span quantizer against the per-element one, the
// int8 conv's byte lowering against the fp32 lowering byte for byte, the
// int8 conv/linear paths, batch bit-identity, and quantization propagation
// through detector/regressor clones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "detection/detector.h"
#include "adascale/scale_regressor.h"
#include "tensor/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/linear.h"
#include "tensor/loss.h"
#include "tensor/qgemm.h"
#include "util/rng.h"

namespace ada {
namespace {

// ------------------------------------------------------------- primitives

TEST(QuantizeTest, RoundTripBoundedByHalfStep) {
  const QuantParams p = choose_qparams(-3.0f, 5.0f);
  ASSERT_GT(p.scale, 0.0f);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-3.0f, 5.0f);
    const float back = dequantize_u8(quantize_u8(x, p), p);
    // Inside the calibrated range the round trip errs by at most half a
    // quantization step (plus fp32 rounding slack).
    EXPECT_NEAR(back, x, 0.5f * p.scale + 1e-5f) << "x=" << x;
  }
}

TEST(QuantizeTest, RangeWidenedToIncludeZero) {
  // A strictly positive observed range must still represent 0 exactly:
  // im2col pads with fp32 zeros, and dequant(quant(0)) must give 0.
  const QuantParams p = choose_qparams(2.0f, 6.0f);
  EXPECT_EQ(dequantize_u8(quantize_u8(0.0f, p), p), 0.0f);
  EXPECT_EQ(p.zero_point, 0);
}

TEST(QuantizeTest, SaturatingOutliersClamp) {
  const QuantParams p = choose_qparams(0.0f, 1.0f);
  EXPECT_EQ(quantize_u8(50.0f, p), 255);   // above range: clamps, no wrap
  EXPECT_EQ(quantize_u8(-50.0f, p), 0);    // below range: clamps to 0
}

TEST(QuantizeTest, DegenerateRangeGetsUsableScale) {
  const QuantParams p = choose_qparams(0.0f, 0.0f);
  EXPECT_GT(p.scale, 0.0f);
  EXPECT_EQ(quantize_u8(0.0f, p), p.zero_point);
}

TEST(QuantizeWeightsTest, PerChannelScalesAndSums) {
  // Row 0: ordinary values.  Row 1: all zero (edge: scale must stay
  // positive, quantized row all zero).  Row 2: one huge outlier dominating
  // the channel scale — symmetric per-channel quantization represents the
  // outlier at full precision and coarsens the small values.
  const int rows = 3, cols = 4;
  const float w[rows * cols] = {0.5f, -1.0f, 0.25f, 0.75f,
                                0.0f, 0.0f,  0.0f,  0.0f,
                                127.0f, 0.5f, -0.5f, 0.0f};
  const QuantizedWeights qw = quantize_weights(w, rows, cols, QuantParams{});
  ASSERT_EQ(qw.rows, rows);
  ASSERT_EQ(qw.cols, cols);

  // Row 0: absmax 1.0 → scale 1/127; -1.0 maps to -127 exactly.
  EXPECT_NEAR(qw.scale[0], 1.0f / 127.0f, 1e-7f);
  EXPECT_EQ(qw.q[1], -127);
  // Row 1: all-zero channel keeps a positive scale and zero row sum.
  EXPECT_GT(qw.scale[1], 0.0f);
  for (int c = 0; c < cols; ++c) EXPECT_EQ(qw.q[cols + c], 0);
  EXPECT_EQ(qw.row_sum[1], 0);
  // Row 2: scale 1.0; the outlier hits ±127 without wrapping and the
  // small values collapse toward 0/±1.
  EXPECT_NEAR(qw.scale[2], 1.0f, 1e-6f);
  EXPECT_EQ(qw.q[2 * cols + 0], 127);
  EXPECT_LE(std::abs(static_cast<int>(qw.q[2 * cols + 1])), 1);

  // Row sums match the quantized values (epilogue correction term).
  for (int r = 0; r < rows; ++r) {
    int s = 0;
    for (int c = 0; c < cols; ++c) s += qw.q[r * cols + c];
    EXPECT_EQ(qw.row_sum[r], s);
  }
}

TEST(RangeObserverTest, TracksMinMaxAndPercentile) {
  RangeObserver obs;
  EXPECT_FALSE(obs.seen());
  // 1000 dense values in [0, 1] plus one huge outlier.
  std::vector<float> xs;
  for (int i = 0; i < 1000; ++i)
    xs.push_back(static_cast<float>(i) / 1000.0f);
  xs.push_back(100.0f);
  obs.observe(xs.data(), xs.size());
  ASSERT_TRUE(obs.seen());
  EXPECT_EQ(obs.min(), 0.0f);
  EXPECT_EQ(obs.max(), 100.0f);
  // Full fraction returns the exact max; clipping a tail drops the
  // outlier but keeps (at least) the dense bulk.
  EXPECT_EQ(obs.percentile_hi(1.0), 100.0f);
  const float clipped = obs.percentile_hi(0.995);
  EXPECT_LT(clipped, 2.0f);
  EXPECT_GE(clipped, 0.99f);
}

TEST(CalibrationClipTest, ParseAcceptsOnlyWholeDecimalsInRange) {
  struct Case {
    const char* env;
    double want;
    bool warns;
  };
  const Case cases[] = {
      {nullptr, 0.25, false},
      {"0.5", 0.5, false},
      {"0.9995", 0.9995, false},
      {".75", 0.75, false},
      {"1", 1.0, false},
      {"1.0", 1.0, false},
      {"0.5x", 0.25, true},
      {" 0.5", 0.25, true},
      {"0.5 ", 0.25, true},
      {"+0.5", 0.25, true},
      {"-0.5", 0.25, true},
      {"5e-1", 0.25, true},
      {"0x0.8", 0.25, true},
      {"nan", 0.25, true},
      {"inf", 0.25, true},
      {"0", 0.25, true},
      {"0.0", 0.25, true},
      {"1.5", 0.25, true},
      {"0.5.1", 0.25, true},
      {".", 0.25, true},
      {"", 0.25, true},
  };
  for (const Case& c : cases) {
    const std::string name = c.env == nullptr ? "unset" : c.env;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parse_clip_fraction(c.env, 0.25), c.want) << name;
    const std::string err = ::testing::internal::GetCapturedStderr();
    if (c.warns) {
      EXPECT_NE(err.find("ADASCALE_INT8_CLIP=" + name + " "),
                std::string::npos)
          << name << ": " << err;
      EXPECT_NE(err.find("using 0.25\n"), std::string::npos)
          << name << ": " << err;
    } else {
      EXPECT_EQ(err, "") << name;
    }
  }
}

TEST(RangeObserverTest, AllZeroObservationsAreSafe) {
  // Regression: the first observed activations being all zero (common
  // post-ReLU) must not touch an unallocated histogram.
  RangeObserver obs;
  std::vector<float> zeros(4096, 0.0f);
  obs.observe(zeros.data(), zeros.size());
  ASSERT_TRUE(obs.seen());
  EXPECT_EQ(obs.max(), 0.0f);
  EXPECT_EQ(obs.percentile_hi(0.999), 0.0f);
  // Values arriving later still histogram correctly.
  const float one = 1.0f;
  obs.observe(&one, 1);
  EXPECT_EQ(obs.percentile_hi(1.0), 1.0f);
}

// ------------------------------------------------------------------ qgemm

/// Fake-quantized fp32 oracle: dequantized weights x fake-quantized
/// activations through the reference SGEMM, with the same epilogue math.
/// Integer qgemm must match this to fp32-rounding tolerance.
void qgemm_oracle(int M, int N, int K, const QuantizedWeights& W,
                  const GemmMat& B, float* C, int ldc, const float* bias,
                  bool relu) {
  std::vector<float> wf(static_cast<std::size_t>(M) * K);
  for (int m = 0; m < M; ++m)
    for (int k = 0; k < K; ++k)
      wf[static_cast<std::size_t>(m) * K + k] =
          static_cast<float>(W.q[static_cast<std::size_t>(m) * K + k]) *
          W.scale[static_cast<std::size_t>(m)];
  std::vector<float> bf(static_cast<std::size_t>(K) * N);
  for (int k = 0; k < K; ++k)
    for (int j = 0; j < N; ++j)
      bf[static_cast<std::size_t>(k) * N + j] = dequantize_u8(
          quantize_u8(B.p[static_cast<std::ptrdiff_t>(k) * B.rs +
                          static_cast<std::ptrdiff_t>(j) * B.cs],
                      W.act),
          W.act);
  const GemmBackend saved = gemm_backend();
  set_gemm_backend(GemmBackend::kReference);
  GemmEpilogue epi;
  epi.row_bias = bias;
  epi.relu = relu;
  sgemm(M, N, K, GemmMat{wf.data(), K, 1}, GemmMat{bf.data(), N, 1}, C, ldc,
        /*accumulate=*/false, epi);
  set_gemm_backend(saved);
}

TEST(QgemmTest, MatchesFakeQuantOracleOnOddShapes) {
  Rng rng(11);
  for (const auto [M, N, K] : {std::array<int, 3>{1, 1, 1},
                               std::array<int, 3>{5, 37, 13},
                               std::array<int, 3>{7, 17, 97},
                               std::array<int, 3>{48, 450, 432},
                               std::array<int, 3>{6, 16, 32},
                               std::array<int, 3>{13, 1029, 27}}) {
    std::vector<float> w(static_cast<std::size_t>(M) * K);
    for (float& v : w) v = rng.uniform(-1.0f, 1.0f);
    std::vector<float> b(static_cast<std::size_t>(K) * N);
    for (float& v : b) v = rng.uniform(-2.0f, 3.0f);
    std::vector<float> bias(static_cast<std::size_t>(M));
    for (float& v : bias) v = rng.uniform(-0.5f, 0.5f);

    const QuantizedWeights qw =
        quantize_weights(w.data(), M, K, choose_qparams(-2.0f, 3.0f));
    std::vector<float> got(static_cast<std::size_t>(M) * N, -1.0f);
    std::vector<float> want(static_cast<std::size_t>(M) * N, -2.0f);
    const GemmMat bmat{b.data(), N, 1};
    qgemm(M, N, K, qw, bmat, got.data(), N, bias.data(), /*relu=*/true);
    qgemm_oracle(M, N, K, qw, bmat, want.data(), N, bias.data(),
                 /*relu=*/true);
    // The oracle's fp32 accumulation rounds once per k step (the integer
    // kernel is exact), so the bound grows with K.
    const float tol = 1e-4f * (1.0f + static_cast<float>(K) * 0.05f);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], tol + 1e-4f * std::fabs(want[i]))
          << "M=" << M << " N=" << N << " K=" << K << " i=" << i;
  }
}

TEST(QgemmTest, StridedBOperand) {
  // Transposed-view activations (the linear path): element (k, j) at
  // p[k + j * K].
  Rng rng(3);
  const int M = 4, N = 6, K = 9;
  std::vector<float> w(static_cast<std::size_t>(M) * K);
  for (float& v : w) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> x(static_cast<std::size_t>(N) * K);  // (N rows of K)
  for (float& v : x) v = rng.uniform(0.0f, 4.0f);
  const QuantizedWeights qw =
      quantize_weights(w.data(), M, K, choose_qparams(0.0f, 4.0f));
  const GemmMat bt{x.data(), 1, K};
  std::vector<float> got(static_cast<std::size_t>(M) * N);
  std::vector<float> want(static_cast<std::size_t>(M) * N);
  qgemm(M, N, K, qw, bt, got.data(), N, nullptr, false);
  qgemm_oracle(M, N, K, qw, bt, want.data(), N, nullptr, false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], 1e-4f + 1e-5f * std::fabs(want[i]));
}

TEST(QgemmTest, BitIdenticalRunToRun) {
  Rng rng(23);
  const int M = 11, N = 333, K = 50;
  std::vector<float> w(static_cast<std::size_t>(M) * K);
  for (float& v : w) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> b(static_cast<std::size_t>(K) * N);
  for (float& v : b) v = rng.uniform(-1.0f, 2.0f);
  const QuantizedWeights qw =
      quantize_weights(w.data(), M, K, choose_qparams(-1.0f, 2.0f));
  std::vector<float> c1(static_cast<std::size_t>(M) * N);
  std::vector<float> c2(static_cast<std::size_t>(M) * N);
  qgemm(M, N, K, qw, GemmMat{b.data(), N, 1}, c1.data(), N, nullptr, true);
  qgemm(M, N, K, qw, GemmMat{b.data(), N, 1}, c2.data(), N, nullptr, true);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ------------------------------------------------------------- ISA matrix
//
// Every quantized kernel body the CPU can run — generic pair-wise s32,
// vpmaddwd s16 pairs (avx2 / avx512), vpdpbusd quads (vnni) — must produce
// the SAME bits, including at the operand extremes where a saturating
// instruction would silently diverge: vpmaddwd's pair sum reaches
// 255*127*2 = 64770 (far above s16 but exact in its s32 accumulator), and
// vpdpbusd's quad sum reaches 129540 (vpdpbusd, unlike VPDPBUSDS, wraps
// rather than saturates — and these magnitudes stay far inside s32 anyway).

/// ISA levels this host can actually execute, weakest first.
std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (KernelIsa isa : {KernelIsa::kGeneric, KernelIsa::kAvx2,
                        KernelIsa::kAvx512, KernelIsa::kVnni})
    if (static_cast<int>(isa) <= static_cast<int>(kernel_isa_native()))
      out.push_back(isa);
  return out;
}

struct IsaOverrideGuard {
  ~IsaOverrideGuard() { clear_qgemm_isa(); }
};

/// Runs one qgemm problem under every supported ISA body: all bodies must
/// match the generic scalar kernel BITWISE (integer accumulation is exact,
/// so grouping and SIMD width cannot matter), and the generic kernel must
/// sit within fp32-rounding tolerance of the fake-quant oracle.
void expect_isa_invariant(int M, int N, int K, const QuantizedWeights& qw,
                          const std::vector<float>& b, const float* bias,
                          bool relu) {
  const GemmMat bmat{b.data(), N, 1};
  const std::size_t elems = static_cast<std::size_t>(M) * N;
  IsaOverrideGuard guard;
  set_qgemm_isa(KernelIsa::kGeneric);
  std::vector<float> baseline(elems, -1.0f);
  qgemm(M, N, K, qw, bmat, baseline.data(), N, bias, relu);

  std::vector<float> oracle(elems);
  qgemm_oracle(M, N, K, qw, bmat, oracle.data(), N, bias, relu);
  const float tol = 1e-4f * (1.0f + static_cast<float>(K) * 0.05f);
  for (std::size_t i = 0; i < elems; ++i)
    ASSERT_NEAR(baseline[i], oracle[i],
                (tol + 1e-4f * std::fabs(oracle[i])) *
                    (1.0f + std::fabs(oracle[i])))
        << "generic kernel off the fake-quant oracle at i=" << i;

  for (KernelIsa isa : supported_isas()) {
    if (isa == KernelIsa::kGeneric) continue;
    set_qgemm_isa(isa);
    EXPECT_STREQ(qgemm_kernel_isa(), kernel_isa_name(isa));
    std::vector<float> got(elems, -1.0f);
    qgemm(M, N, K, qw, bmat, got.data(), N, bias, relu);
    EXPECT_EQ(0, std::memcmp(got.data(), baseline.data(),
                             elems * sizeof(float)))
        << "kernel body " << kernel_isa_name(isa)
        << " not bit-identical to the generic body";
  }
}

TEST(QgemmIsaTest, SaturationExtremesBitIdenticalAcrossAllKernelBodies) {
  // Worst-case operands: weights pinned to ±127, activations that quantize
  // to 255 (act scale 1, zero point 0, inputs at the clamp edge), K odd so
  // the pair kernels run a zero-padded tail and K % 4 != 0 so the quad
  // kernel does too.
  const int M = 5, N = 33, K = 19;
  QuantizedWeights qw;
  qw.rows = M;
  qw.cols = K;
  qw.q.resize(static_cast<std::size_t>(M) * K);
  qw.scale.assign(static_cast<std::size_t>(M), 1.0f);
  qw.row_sum.assign(static_cast<std::size_t>(M), 0);
  for (int m = 0; m < M; ++m) {
    for (int k = 0; k < K; ++k) {
      // Rows alternate sign patterns so pair sums hit +64770, -64770, and
      // cancellation; row 4 is all +127 (maximal same-sign quads).
      const std::int8_t v = (m == 4 || (k + m) % 2 == 0) ? 127 : -127;
      qw.q[static_cast<std::size_t>(m) * K + k] = v;
      qw.row_sum[static_cast<std::size_t>(m)] += v;
    }
  }
  qw.act = QuantParams{1.0f, 0};
  std::vector<float> b(static_cast<std::size_t>(K) * N);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = (i % 3 == 0) ? 255.0f : ((i % 3 == 1) ? 300.0f : 0.0f);  // 300 clamps
  expect_isa_invariant(M, N, K, qw, b, nullptr, false);

  // Nonzero zero point exercises the row_sum correction at the same
  // extremes (zp 128 centres the u8 range).
  qw.act = QuantParams{2.0f, 128};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = (i % 2 == 0) ? 254.0f : -256.0f;  // quantize to 255 and 0
  const std::vector<float> bias = {0.5f, -3.0f, 0.0f, 7.5f, -0.25f};
  expect_isa_invariant(M, N, K, qw, b, bias.data(), true);
}

TEST(QgemmIsaTest, OddShapesBitIdenticalAcrossAllKernelBodies) {
  Rng rng(41);
  const struct { int M, N, K; } shapes[] = {
      {1, 1, 1}, {5, 37, 13}, {6, 16, 32}, {7, 129, 97}, {13, 48, 27}};
  for (const auto& s : shapes) {
    std::vector<float> w(static_cast<std::size_t>(s.M) * s.K);
    for (float& v : w) v = rng.uniform(-1.0f, 1.0f);
    std::vector<float> b(static_cast<std::size_t>(s.K) * s.N);
    for (float& v : b) v = rng.uniform(-1.0f, 2.0f);
    const QuantizedWeights qw =
        quantize_weights(w.data(), s.M, s.K, choose_qparams(-1.0f, 2.0f));
    expect_isa_invariant(s.M, s.N, s.K, qw, b, nullptr, false);
  }
}

TEST(QgemmIsaTest, OverrideAboveEnvCapAllowedAndRestored) {
  // set_qgemm_isa may exceed the ADASCALE_ISA cap (a capped process still
  // benchmarks every body the silicon has) but never the silicon itself;
  // clear restores capped dispatch.
  IsaOverrideGuard guard;
  const std::string capped = qgemm_kernel_isa();
  set_qgemm_isa(kernel_isa_native());
  EXPECT_STREQ(qgemm_kernel_isa(), kernel_isa_name(kernel_isa_native()));
  clear_qgemm_isa();
  EXPECT_EQ(capped, qgemm_kernel_isa());
}

/// Value `i` of an input that stresses quantization: every third one is
/// NaN, ±inf, ±0, beyond the calibrated range [lo, hi], or on an exact
/// half step between two codes; the rest are uniform in [lo, hi].
float stress_value(std::size_t i, const QuantParams& p, float lo, float hi,
                   Rng* rng) {
  if (i % 3 != 0) return rng->uniform(lo, hi);
  const float half_step =
      (static_cast<float>(rng->uniform_int(0, 254) - p.zero_point) + 0.5f) *
      p.scale;
  const float specials[] = {std::nanf(""),
                            INFINITY,
                            -INFINITY,
                            0.0f,
                            -0.0f,
                            hi * 3.0f + 1.0f,
                            lo * 3.0f - 1.0f,
                            half_step};
  return specials[(i / 3) % (sizeof(specials) / sizeof(specials[0]))];
}

TEST(QuantizeSpanTest, MatchesPerElementQuantizeUnderEveryIsa) {
  // A power-of-two scale makes the half steps exact, so round-half-even
  // shows: 0.5 and -0.5 steps land on the zero point, 1.5 on zp + 2.
  const QuantParams p{0.25f, 10};
  EXPECT_EQ(quantize_u8(std::nanf(""), p), 0);
  EXPECT_EQ(quantize_u8(INFINITY, p), 255);
  EXPECT_EQ(quantize_u8(-INFINITY, p), 0);
  EXPECT_EQ(quantize_u8(1e30f, p), 255);
  EXPECT_EQ(quantize_u8(-1e30f, p), 0);
  EXPECT_EQ(quantize_u8(0.0f, p), 10);
  EXPECT_EQ(quantize_u8(-0.0f, p), 10);
  EXPECT_EQ(quantize_u8(0.125f, p), 10);
  EXPECT_EQ(quantize_u8(-0.125f, p), 10);
  EXPECT_EQ(quantize_u8(0.375f, p), 12);
  EXPECT_EQ(quantize_u8(-0.375f, p), 8);

  // Every length 0-47 covers empty, tail-only and whole-vector-plus-tail
  // spans; start offsets of 0-2 floats misalign the loads.
  Rng rng(53);
  std::vector<float> x(64);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = stress_value(i, p, -2.0f, 60.0f, &rng);
  IsaOverrideGuard guard;
  for (KernelIsa isa : supported_isas()) {
    set_qgemm_isa(isa);
    for (std::size_t n = 0; n < 48; ++n) {
      const float* src = x.data() + n % 3;
      std::vector<std::uint8_t> got(n + 1, 0xAB);
      quantize_u8_span(src, n, p, got.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], quantize_u8(src[i], p))
            << kernel_isa_name(isa) << " n=" << n << " i=" << i
            << " x=" << src[i];
      EXPECT_EQ(got[n], 0xAB) << "wrote past the span, n=" << n;
    }
  }
}

// ------------------------------------------------------- conv/linear int8

Tensor random_tensor(int n, int c, int h, int w, float lo, float hi,
                     Rng* rng) {
  Tensor t(n, c, h, w);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng->uniform(lo, hi);
  return t;
}

/// Image n of x lowered to a zero-padded fp32 column matrix, one tap at a
/// time: (in_c*k*k) rows of oh*ow columns.
std::vector<float> float_columns(const Tensor& x, int n, const ConvSpec& s) {
  const int oh = s.out_dim(x.h());
  const int ow = s.out_dim(x.w());
  const int k = s.kernel;
  std::vector<float> cols(
      static_cast<std::size_t>(s.in_channels) * k * k * oh * ow, 0.0f);
  std::size_t r = 0;
  for (int c = 0; c < s.in_channels; ++c)
    for (int ki = 0; ki < k; ++ki)
      for (int kj = 0; kj < k; ++kj, ++r)
        for (int i = 0; i < oh; ++i)
          for (int j = 0; j < ow; ++j) {
            const int hi = i * s.stride - s.pad + ki * s.dilation;
            const int wj = j * s.stride - s.pad + kj * s.dilation;
            if (hi >= 0 && hi < x.h() && wj >= 0 && wj < x.w())
              cols[(r * oh + i) * ow + j] = x.at(n, c, hi, wj);
          }
  return cols;
}

TEST(ConvInt8Test, ByteLoweringMatchesFloatLoweringBytewise) {
  // conv2d_forward_int8 quantizes its input once and lowers bytes; that
  // must give, byte for byte, the float-operand qgemm run over the fp32
  // im2col columns (each column entry quantized where it is packed, a
  // zero pad quantizing to the zero point).  lo < 0 keeps the zero point
  // off 0, so a pad byte of 0 would show.
  struct Case {
    ConvSpec spec;
    int n, h, w;
  };
  const Case cases[] = {
      {ConvSpec{3, 8, 3, 1, 1}, 1, 9, 11},
      {ConvSpec{3, 5, 3, 1, 1}, 3, 6, 19},
      {ConvSpec{4, 6, 3, 2, 1}, 1, 10, 13},
      {ConvSpec{4, 6, 3, 2, 1}, 3, 7, 8},
      {ConvSpec{5, 7, 1, 1, 0}, 1, 6, 7},
      {ConvSpec{5, 7, 1, 1, 0}, 3, 5, 4},
      // Dilation 4 on inputs smaller than its reach: whole rows of some
      // taps are padding.
      {ConvSpec{3, 5, 3, 1, 4, 4}, 1, 3, 5},
      {ConvSpec{2, 4, 3, 1, 4, 4}, 3, 4, 2},
      // W = 1.
      {ConvSpec{2, 4, 3, 1, 1}, 1, 7, 1},
      {ConvSpec{2, 3, 1, 1, 0}, 3, 5, 1},
  };
  Rng rng(61);
  IsaOverrideGuard guard;
  for (const Case& tc : cases) {
    const ConvSpec& spec = tc.spec;
    const float lo = -rng.uniform(0.5f, 2.0f);
    const float hi = rng.uniform(0.5f, 3.0f);
    const QuantParams act = choose_qparams(lo, hi);
    ASSERT_NE(act.zero_point, 0);
    Tensor x(tc.n, spec.in_channels, tc.h, tc.w);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = stress_value(i, act, lo, hi, &rng);
    const int patch = spec.in_channels * spec.kernel * spec.kernel;
    const QuantizedWeights qw = quantize_weights(
        random_tensor(spec.out_channels, spec.in_channels, spec.kernel,
                      spec.kernel, -0.5f, 0.5f, &rng)
            .data(),
        spec.out_channels, patch, act);
    const Tensor b =
        random_tensor(1, spec.out_channels, 1, 1, -0.2f, 0.2f, &rng);
    const bool relu = tc.n == 1;
    const int cells = spec.out_dim(tc.h) * spec.out_dim(tc.w);
    const std::size_t per_image =
        static_cast<std::size_t>(spec.out_channels) * cells;

    for (KernelIsa isa : supported_isas()) {
      set_qgemm_isa(isa);
      Tensor y;
      conv2d_forward_int8(spec, x, qw, b, &y, relu);
      ASSERT_EQ(y.size(), per_image * tc.n);
      for (int n = 0; n < tc.n; ++n) {
        const std::vector<float> cols = float_columns(x, n, spec);
        std::vector<float> want(per_image);
        qgemm(spec.out_channels, cells, patch, qw,
              GemmMat{cols.data(), cells, 1}, want.data(), cells, b.data(),
              relu);
        EXPECT_EQ(0, std::memcmp(y.data() + per_image * n, want.data(),
                                 per_image * sizeof(float)))
            << kernel_isa_name(isa) << " k=" << spec.kernel
            << " stride=" << spec.stride << " dilation=" << spec.dilation
            << " " << tc.n << "x" << tc.h << "x" << tc.w << " image " << n;
      }
    }
  }
}

TEST(ConvInt8Test, MatchesFakeQuantFp32Conv) {
  Rng rng(31);
  for (const ConvSpec spec :
       {ConvSpec{3, 8, 3, 1, 1}, ConvSpec{4, 6, 3, 2, 1},
        ConvSpec{5, 7, 1, 1, 0}, ConvSpec{4, 5, 3, 1, 4, 4}}) {
    const int H = 19, W = 23;  // odd sizes exercise edge tiles
    Tensor x = random_tensor(1, spec.in_channels, H, W, 0.0f, 1.5f, &rng);
    Tensor w = random_tensor(spec.out_channels, spec.in_channels,
                             spec.kernel, spec.kernel, -0.4f, 0.4f, &rng);
    Tensor b = random_tensor(1, spec.out_channels, 1, 1, -0.2f, 0.2f, &rng);

    const QuantParams act = choose_qparams(0.0f, 1.5f);
    const QuantizedWeights qw = quantize_weights(
        w.data(), spec.out_channels,
        spec.in_channels * spec.kernel * spec.kernel, act);

    Tensor y_int8;
    conv2d_forward_int8(spec, x, qw, b, &y_int8, /*fuse_relu=*/true);

    // Oracle: fp32 conv over dequantized weights and fake-quantized input.
    Tensor xq(x.n(), x.c(), x.h(), x.w());
    for (std::size_t i = 0; i < x.size(); ++i)
      xq[i] = dequantize_u8(quantize_u8(x[i], act), act);
    Tensor wq(w.n(), w.c(), w.h(), w.w());
    for (int oc = 0; oc < spec.out_channels; ++oc) {
      const std::size_t per = w.size() / static_cast<std::size_t>(w.n());
      for (std::size_t k = 0; k < per; ++k)
        wq[static_cast<std::size_t>(oc) * per + k] =
            static_cast<float>(qw.q[static_cast<std::size_t>(oc) * per + k]) *
            qw.scale[static_cast<std::size_t>(oc)];
    }
    const GemmBackend saved = gemm_backend();
    set_gemm_backend(GemmBackend::kReference);
    Tensor y_ref;
    conv2d_forward(spec, xq, wq, b, &y_ref, /*fuse_relu=*/true);
    set_gemm_backend(saved);

    ASSERT_TRUE(y_int8.same_shape(y_ref));
    for (std::size_t i = 0; i < y_int8.size(); ++i)
      ASSERT_NEAR(y_int8[i], y_ref[i], 1e-4f + 1e-5f * std::fabs(y_ref[i]))
          << "spec k=" << spec.kernel << " i=" << i;
  }
}

TEST(ConvInt8Test, BatchBitIdenticalToPerImage) {
  Rng rng(41);
  const ConvSpec spec{3, 6, 3, 1, 1};
  Tensor batch = random_tensor(3, 3, 14, 17, 0.0f, 1.0f, &rng);
  const QuantizedWeights qw = quantize_weights(
      random_tensor(6, 3, 3, 3, -0.5f, 0.5f, &rng).data(), 6, 27,
      choose_qparams(0.0f, 1.0f));
  Tensor b = random_tensor(1, 6, 1, 1, -0.1f, 0.1f, &rng);

  Tensor y_batch;
  conv2d_forward_int8(spec, batch, qw, b, &y_batch, true);
  for (int n = 0; n < batch.n(); ++n) {
    Tensor y_one;
    conv2d_forward_int8(spec, batch.image(n), qw, b, &y_one, true);
    ASSERT_EQ(0, std::memcmp(y_batch.data() +
                                 static_cast<std::size_t>(n) *
                                     y_batch.image_size(),
                             y_one.data(),
                             y_one.size() * sizeof(float)))
        << "image " << n;
  }
}

TEST(LinearInt8Test, MatchesOracleAndBatchesBitIdentically) {
  Rng rng(53);
  const int in = 32, out = 5, batch = 3;
  Tensor x = random_tensor(batch, in, 1, 1, 0.0f, 2.0f, &rng);
  Tensor w = random_tensor(out, in, 1, 1, -0.8f, 0.8f, &rng);
  Tensor b = random_tensor(1, out, 1, 1, -0.3f, 0.3f, &rng);
  const QuantizedWeights qw =
      quantize_weights(w.data(), out, in, choose_qparams(0.0f, 2.0f));

  Tensor y;
  linear_forward_int8(x, qw, b, &y);
  ASSERT_EQ(y.n(), batch);
  ASSERT_EQ(y.c(), out);

  // Oracle per element.
  for (int n = 0; n < batch; ++n) {
    Tensor yn;
    linear_forward_int8(x.image(n), qw, b, &yn);
    for (int o = 0; o < out; ++o)
      ASSERT_EQ(y.at(n, o, 0, 0), yn.at(0, o, 0, 0))
          << "batched linear must be bit-identical to per-row calls";
    // And against the fake-quant fp32 reference.
    for (int o = 0; o < out; ++o) {
      double acc = 0.0;
      for (int i = 0; i < in; ++i)
        acc += static_cast<double>(
                   dequantize_u8(quantize_u8(x.at(n, i, 0, 0), qw.act),
                                 qw.act)) *
               (static_cast<double>(qw.q[static_cast<std::size_t>(o) * in + i]) *
                qw.scale[static_cast<std::size_t>(o)]);
      EXPECT_NEAR(y.at(n, o, 0, 0), acc + b.at(0, o, 0, 0), 2e-3)
          << "n=" << n << " o=" << o;
    }
  }
}

// ------------------------------------------------- model-level quantization

TEST(DetectorInt8Test, QuantizedForwardCloseToFp32AndDeterministic) {
  Rng rng(5);
  DetectorConfig cfg;
  cfg.num_classes = 4;
  cfg.c1 = 8; cfg.c2 = 12; cfg.c3 = 16;
  Detector det(cfg, &rng);

  Tensor img = random_tensor(1, 3, 64, 80, 0.0f, 1.0f, &rng);
  const GemmBackend saved = gemm_backend();
  set_gemm_backend(GemmBackend::kPacked);
  Tensor feat_fp32 = det.forward(img);  // copy

  det.quantize({img});
  ASSERT_TRUE(det.quantized());

  set_gemm_backend(GemmBackend::kInt8);
  Tensor feat_int8 = det.forward(img);
  ASSERT_TRUE(feat_int8.same_shape(feat_fp32));

  // Per-layer quantization error compounds but stays small relative to the
  // activation magnitude.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < feat_fp32.size(); ++i) {
    const double d = feat_int8[i] - feat_fp32[i];
    num += d * d;
    den += static_cast<double>(feat_fp32[i]) * feat_fp32[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 0.1)
      << "int8 features diverge from fp32 beyond quantization error";

  // Bit-identical run-to-run.
  Tensor again = det.forward(img);
  EXPECT_EQ(0, std::memcmp(again.data(), feat_int8.data(),
                           again.size() * sizeof(float)));
  set_gemm_backend(saved);
}

TEST(DetectorInt8Test, CloneInheritsQuantization) {
  Rng rng(9);
  DetectorConfig cfg;
  cfg.num_classes = 3;
  cfg.c1 = 6; cfg.c2 = 8; cfg.c3 = 10;
  Detector det(cfg, &rng);
  Tensor img = random_tensor(1, 3, 48, 48, 0.0f, 1.0f, &rng);
  det.quantize({img});

  std::unique_ptr<Detector> clone = clone_detector(&det);
  ASSERT_TRUE(clone->quantized());

  const GemmBackend saved = gemm_backend();
  set_gemm_backend(GemmBackend::kInt8);
  const Tensor& a = det.forward(img);
  Tensor a_copy = a;
  const Tensor& b = clone->forward(img);
  EXPECT_EQ(0, std::memcmp(a_copy.data(), b.data(),
                           a_copy.size() * sizeof(float)))
      << "clone must serve bit-identical INT8 results";
  set_gemm_backend(saved);
}

TEST(DetectorInt8Test, BatchedDetectBitIdenticalToSingle) {
  // Cross-stream batching composes with INT8 unchanged because quantization
  // lives below the conv2d_forward seam: a quantized detect_batch must be
  // bit-identical to per-image quantized detect()s, for any batch mix.
  Rng rng(21);
  DetectorConfig cfg;
  cfg.num_classes = 3;
  cfg.c1 = 6; cfg.c2 = 8; cfg.c3 = 10;
  Detector det(cfg, &rng);
  Tensor a = random_tensor(1, 3, 48, 64, 0.0f, 1.0f, &rng);
  Tensor b = random_tensor(1, 3, 48, 64, 0.0f, 1.0f, &rng);
  det.quantize({a, b});

  const GemmBackend saved = gemm_backend();
  set_gemm_backend(GemmBackend::kInt8);
  std::vector<const Tensor*> imgs = {&a, &b, &a};
  Tensor batch = Tensor::batch_of(imgs);
  const std::vector<DetectionOutput> batched = det.detect_batch(batch);
  ASSERT_EQ(batched.size(), 3u);
  for (std::size_t i = 0; i < imgs.size(); ++i) {
    const DetectionOutput one = det.detect(*imgs[i]);
    ASSERT_EQ(batched[i].detections.size(), one.detections.size());
    for (std::size_t d = 0; d < one.detections.size(); ++d) {
      EXPECT_EQ(batched[i].detections[d].score, one.detections[d].score);
      EXPECT_EQ(batched[i].detections[d].box.x1, one.detections[d].box.x1);
      EXPECT_EQ(batched[i].detections[d].class_id,
                one.detections[d].class_id);
    }
  }
  set_gemm_backend(saved);
}

TEST(RegressorInt8Test, QuantizedPredictCloseToFp32) {
  Rng rng(13);
  RegressorConfig cfg;
  cfg.in_channels = 10;
  ScaleRegressor reg(cfg, &rng);
  Tensor features = random_tensor(1, 10, 12, 15, 0.0f, 2.0f, &rng);

  const GemmBackend saved = gemm_backend();
  set_gemm_backend(GemmBackend::kPacked);
  const float t_fp32 = reg.predict(features);

  reg.quantize({features});
  ASSERT_TRUE(reg.quantized());
  set_gemm_backend(GemmBackend::kInt8);
  const float t_int8 = reg.predict(features);
  EXPECT_NEAR(t_int8, t_fp32, 0.05f);

  // Clone propagation, bit-identical.
  std::unique_ptr<ScaleRegressor> clone = clone_regressor(&reg);
  ASSERT_TRUE(clone->quantized());
  EXPECT_EQ(clone->predict(features), reg.predict(features));

  // Batched prediction bit-identical to per-image under int8.
  std::vector<const Tensor*> imgs = {&features, &features};
  Tensor batch = Tensor::batch_of(imgs);
  const std::vector<float> batched = reg.predict_batch(batch);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0], t_int8);
  EXPECT_EQ(batched[1], t_int8);
  set_gemm_backend(saved);
}

TEST(RegressorInt8Test, TrainStepUsesFp32ForwardWhenQuantized) {
  // Regression: training a quantized regressor under ADASCALE_GEMM=int8
  // must run the fp32 forward — gradients apply to the fp32 weights, so a
  // loss computed from the INT8 output would silently corrupt training.
  Rng rng(17);
  RegressorConfig cfg;
  cfg.in_channels = 8;
  ScaleRegressor reg(cfg, &rng);
  Tensor features = random_tensor(1, 8, 10, 10, 0.0f, 2.0f, &rng);
  reg.quantize({features});

  const GemmBackend saved = gemm_backend();
  set_gemm_backend(GemmBackend::kPacked);
  const float t_fp32 = reg.predict(features);
  set_gemm_backend(GemmBackend::kInt8);
  const float t_int8 = reg.predict(features);
  ASSERT_NE(t_fp32, t_int8) << "quantization noise expected; if the two "
                               "coincide this test cannot discriminate";

  // lr 0: the step must not move weights, so the returned loss is purely
  // a readout of which forward path train_step used.
  Sgd::Options opts;
  opts.lr = 0.0f;
  Sgd opt(reg.parameters(), opts);
  const float target = 0.3f;
  const float loss = reg.train_step(features, target, &opt);
  float unused = 0.0f;
  EXPECT_EQ(loss, mse_scalar(t_fp32, target, &unused))
      << "train_step computed its loss from the INT8 forward";
  set_gemm_backend(saved);
}

}  // namespace
}  // namespace ada
