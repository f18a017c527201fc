#include "tensor/qgemm.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "runtime/scratch.h"
#include "runtime/thread_pool.h"

namespace ada {

namespace {

/// Round-to-nearest-even via the 2^23 magic-number trick: (v + 2^23) - 2^23
/// rounds any |v| < 2^22 to the nearest integer-valued float under the
/// default FP rounding mode — two plain adds, so it vectorizes on every
/// ISA and is bit-identical between the scalar helpers and the SIMD
/// packing loops (std::nearbyintf would be a scalar libcall inside the hot
/// loop).  Quantized values live in [0, 255], far inside the valid range;
/// out-of-range garbage still saturates correctly in the clamp that
/// follows every use.
constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23

inline float round_ne(float v) { return (v + kRoundMagic) - kRoundMagic; }

/// The quantize_u8 recipe on one value, given inv = 1/scale and the zero
/// point as a float.  The clamps are selects, so a NaN (which compares
/// false) lands on 0 — the SIMD lanes in quantize_span_body use the same
/// selects in the same order.
inline float quantize_lane(float x, float inv, float fzp) {
  float q = round_ne(x * inv) + fzp;
  q = q > 0.0f ? q : 0.0f;
  return q < 255.0f ? q : 255.0f;
}

}  // namespace

QuantParams choose_qparams(float lo, float hi) {
  // Widen to include 0 so zero padding (im2col edges) quantizes exactly to
  // the zero point, and guard against degenerate/inverted ranges.
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  QuantParams p;
  const float range = hi - lo;
  if (!(range > 0.0f) || !std::isfinite(range)) {
    p.scale = 1.0f;
    p.zero_point = 0;
    return p;
  }
  p.scale = range / 255.0f;
  const float zp = round_ne(-lo / p.scale);
  p.zero_point = static_cast<int>(std::min(255.0f, std::max(0.0f, zp)));
  return p;
}

std::uint8_t quantize_u8(float x, const QuantParams& p) {
  // The same lane recipe quantize_u8_span runs, so fake-quantized fp32
  // references serve as bit-level oracles for the integer kernel.
  return static_cast<std::uint8_t>(
      quantize_lane(x, 1.0f / p.scale, static_cast<float>(p.zero_point)));
}

float dequantize_u8(std::uint8_t q, const QuantParams& p) {
  return (static_cast<int>(q) - p.zero_point) * p.scale;
}

void RangeObserver::grow(float a) {
  if (cap_ <= 0.0f) {
    // First nonzero magnitude seeds the cap (zeros always land in bin 0,
    // independent of cap).
    cap_ = std::max(a, 1e-6f);
    return;
  }
  while (cap_ < a && std::isfinite(cap_)) {
    // Double the cap by merging adjacent bin pairs into the lower half.
    for (int b = 0; b < kBins / 2; ++b)
      hist_[static_cast<std::size_t>(b)] =
          hist_[static_cast<std::size_t>(2 * b)] +
          hist_[static_cast<std::size_t>(2 * b + 1)];
    std::fill(hist_.begin() + kBins / 2, hist_.end(), 0);
    cap_ *= 2.0f;
  }
}

void RangeObserver::observe(const float* x, std::size_t n) {
  if (n == 0) return;
  if (hist_.empty()) hist_.assign(kBins, 0);
  if (total_ == 0) {
    min_ = x[0];
    max_ = x[0];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const float a = std::fabs(v);
    if (a > cap_) grow(a);
    const int bin =
        cap_ > 0.0f
            ? std::min(kBins - 1,
                       static_cast<int>(
                           a * (static_cast<float>(kBins) / cap_)))
            : 0;
    ++hist_[static_cast<std::size_t>(bin)];
  }
  total_ += static_cast<long long>(n);
}

float RangeObserver::percentile_hi(double fraction) const {
  if (total_ == 0) return 0.0f;
  const float amax = std::max(std::fabs(min_), std::fabs(max_));
  if (fraction >= 1.0 || hist_.empty()) return amax;
  const double target = fraction * static_cast<double>(total_);
  double cum = 0.0;
  for (int b = 0; b < kBins; ++b) {
    cum += static_cast<double>(hist_[static_cast<std::size_t>(b)]);
    if (cum >= target)
      return std::min(amax,
                      cap_ * (static_cast<float>(b + 1) / kBins));
  }
  return amax;
}

double calibration_clip_fraction() {
  static const double fraction =
      parse_clip_fraction(std::getenv("ADASCALE_INT8_CLIP"), 0.9995);
  return fraction;
}

double parse_clip_fraction(const char* env, double fallback) {
  if (env == nullptr) return fallback;
  // Digits and one point only: strtod alone would skip leading blanks,
  // take a sign, an exponent, hex, "inf" or "nan", and atof would stop at
  // trailing junk, reading "0.5x" as 0.5.
  const std::size_t len = std::strlen(env);
  const char* point = std::strchr(env, '.');
  if (len > 0 && std::strspn(env, "0123456789.") == len &&
      std::strpbrk(env, "0123456789") != nullptr &&
      (point == nullptr || std::strchr(point + 1, '.') == nullptr)) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env + len && v > 0.0 && v <= 1.0) return v;
  }
  std::fprintf(stderr,
               "ADASCALE_INT8_CLIP=%s is not a decimal in (0, 1]; using %g\n",
               env, fallback);
  return fallback;
}

QuantizedWeights quantize_weights(const float* w, int rows, int cols,
                                  const QuantParams& act) {
  QuantizedWeights out;
  out.rows = rows;
  out.cols = cols;
  out.q.resize(static_cast<std::size_t>(rows) * cols);
  out.scale.resize(static_cast<std::size_t>(rows));
  out.row_sum.resize(static_cast<std::size_t>(rows));
  out.act = act;
  for (int r = 0; r < rows; ++r) {
    const float* row = w + static_cast<std::size_t>(r) * cols;
    float amax = 0.0f;
    for (int c = 0; c < cols; ++c) amax = std::max(amax, std::fabs(row[c]));
    // An all-zero output channel still needs a usable (positive) scale —
    // its quantized row is all zero either way.
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    out.scale[static_cast<std::size_t>(r)] = scale;
    std::int32_t sum = 0;
    std::int8_t* qrow = out.q.data() + static_cast<std::size_t>(r) * cols;
    const float inv = 1.0f / scale;
    for (int c = 0; c < cols; ++c) {
      const float v = round_ne(row[c] * inv);
      const std::int8_t qv = static_cast<std::int8_t>(
          std::min(127.0f, std::max(-127.0f, v)));
      qrow[c] = qv;
      sum += qv;
    }
    out.row_sum[static_cast<std::size_t>(r)] = sum;
  }
  return out;
}

namespace {

// Register blocking mirrors the fp32 packed kernel (tensor/gemm.cpp): a
// kMR x kNR int32 accumulator tile.  The reduction axis is processed in
// *k-groups* — pairs for the vpmaddwd kernels (u8/s8 widened to s16,
// adjacent-k multiply-add straight into s32) and quads for the AVX-512
// VNNI kernel (vpdpbusd: a u8 x s8 four-element dot product per lane).
// A panels hold one k-group per output row as a single 32-bit word
// (2 x s16 or 4 x s8) so the kernel broadcast is a plain dword splat;
// B panels group-interleave the quantized u8 columns so one vector load
// feeds the multiply-add directly.  Integer accumulation is exact and
// addition is associative, so every grouping and every ISA produces
// identical bits — the portable pair body below uses the same k-pairing
// as vpmaddwd and matches the SIMD kernels bit for bit.
//
// Intermediate bounds (nothing saturates): one u8 x s8 product is at most
// 255 * 127 = 32385.  The vpmaddwd s16 inputs are the raw u8/s8 values
// (never rescaled), so a pair sum is ≤ 64770 — s16 * s16 pair sums only
// saturate at -32768 * -32768 * 2, unreachable from this operand range.
// A vpdpbusd quad sum is ≤ 129540, and vpdpbusd accumulates modulo 2^32
// without saturating (only VPDPBUSDS saturates); the full-K chain fits
// s32 by the bound qgemm asserts.
constexpr int kMR = 6;
constexpr int kNR = 16;
constexpr int kNC = 1024;  ///< column-stripe width, the unit of parallelism

int ceil_div(int a, int b) { return (a + b - 1) / b; }

#if defined(__GNUC__) || defined(__clang__)
#define ADA_QGEMM_VECTOR_EXT 1
// Vector-extension types for the span quantizer and the byte pack: one
// body serves every dispatched ISA (the compiler splits wider-than-native
// vectors).
typedef std::int32_t v16s32 __attribute__((vector_size(64), may_alias));
typedef std::uint8_t v16u8
    __attribute__((vector_size(16), may_alias, aligned(1)));
typedef float v16f __attribute__((vector_size(64), may_alias));
typedef float v16f_u __attribute__((vector_size(64), may_alias, aligned(4)));
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ADA_QGEMM_X86_DISPATCH 1
#endif

struct QTile {
  const void* pa;          ///< packed A panel: kg steps of kMR k-group dwords
  const std::uint8_t* pb;  ///< packed B panel: kg steps of kNR u8 k-groups
  float* c;                ///< top-left of the fp32 output tile
  int ldc;
  int kg;                  ///< k-group steps: ceil(K / G), G = 2 or 4
  int mv, nv;              ///< valid rows/cols (edge tiles < kMR/kNR)
  const float* row_scale;  ///< act.scale * weight scale, per tile row
  const std::int32_t* row_sum;  ///< weight row sums, per tile row
  int azp;                 ///< activation zero point
  const float* row_bias;   ///< fp32 bias per tile row, or null
  bool relu;
};

/// Dequant epilogue for one spilled accumulator row: fp32 = (acc - azp *
/// row_sum[m]) * row_scale[m] + bias[m], then ReLU.  Plain per-element
/// fp32 mul/add (this file builds with -ffp-contract=off) is exactly
/// rounded, so the stored bytes are identical no matter which ISA body
/// produced `acc` — the cross-ISA determinism contract reduces to the
/// integer accumulators matching, which exactness guarantees.
inline __attribute__((always_inline)) void qepilogue_row(
    const std::int32_t* acc, int m, const QTile& t) {
  float* crow = t.c + static_cast<std::ptrdiff_t>(m) * t.ldc;
  const std::int32_t corr = t.azp * t.row_sum[m];
  const float scale = t.row_scale[m];
  const float bias = t.row_bias != nullptr ? t.row_bias[m] : 0.0f;
  for (int j = 0; j < t.nv; ++j) {
    float v = static_cast<float>(acc[j] - corr) * scale + bias;
    if (t.relu) v = std::max(v, 0.0f);
    crow[j] = v;
  }
}

/// Portable pair kernel: the same k-pair grouping as vpmaddwd, in plain
/// s32 arithmetic.  This is the body the SIMD kernels must match bit for
/// bit (they do: integer sums re-associate freely), and the dispatch
/// target for KernelIsa::kGeneric.
void qmicro_pair_generic(const QTile& t) {
  std::int32_t acc[kMR][kNR] = {};
  const std::int16_t* pa = static_cast<const std::int16_t*>(t.pa);
  const std::uint8_t* pb = t.pb;
  for (int p = 0; p < t.kg; ++p, pa += kMR * 2, pb += kNR * 2)
    for (int m = 0; m < kMR; ++m) {
      const std::int32_t a0 = pa[2 * m];
      const std::int32_t a1 = pa[2 * m + 1];
      for (int j = 0; j < kNR; ++j)
        acc[m][j] += a0 * static_cast<std::int32_t>(pb[2 * j]) +
                     a1 * static_cast<std::int32_t>(pb[2 * j + 1]);
    }
  for (int m = 0; m < t.mv; ++m) qepilogue_row(acc[m], m, t);
}

#ifdef ADA_QGEMM_X86_DISPATCH

/// vpmaddwd pair kernel, AVX2: per k-pair step, zero-extend 16 u8 column
/// pairs to s16 (two ymm), broadcast each row's s16 pair as a dword, and
/// fold the vpmaddwd pair sums into two ymm s32 accumulators per row —
/// 12 accumulator registers, same budget as the fp32 6x16 tile.
__attribute__((target("avx2"))) void qmicro_pair_avx2(const QTile& t) {
  const std::int16_t* pa = static_cast<const std::int16_t*>(t.pa);
  const std::uint8_t* pb = t.pb;
  __m256i acc_lo[kMR], acc_hi[kMR];
  for (int m = 0; m < kMR; ++m) {
    acc_lo[m] = _mm256_setzero_si256();
    acc_hi[m] = _mm256_setzero_si256();
  }
  for (int p = 0; p < t.kg; ++p, pa += kMR * 2, pb += kNR * 2) {
    const __m256i blo = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb)));
    const __m256i bhi = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + 16)));
    for (int m = 0; m < kMR; ++m) {
      std::int32_t aw;
      std::memcpy(&aw, pa + 2 * m, sizeof(aw));
      const __m256i a = _mm256_set1_epi32(aw);
      acc_lo[m] = _mm256_add_epi32(acc_lo[m], _mm256_madd_epi16(a, blo));
      acc_hi[m] = _mm256_add_epi32(acc_hi[m], _mm256_madd_epi16(a, bhi));
    }
  }
  alignas(64) std::int32_t acc[kNR];
  for (int m = 0; m < t.mv; ++m) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc), acc_lo[m]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 8), acc_hi[m]);
    qepilogue_row(acc, m, t);
  }
}

/// vpmaddwd pair kernel, AVX-512: the full 16-column tile row is one zmm
/// of 16 s32 lanes; each k-pair step is one cvtepu8 widen + vpmaddwd +
/// vpaddd per row.
__attribute__((target("avx512f,avx512bw"))) void qmicro_pair_avx512(
    const QTile& t) {
  const std::int16_t* pa = static_cast<const std::int16_t*>(t.pa);
  const std::uint8_t* pb = t.pb;
  __m512i acc[kMR];
  for (int m = 0; m < kMR; ++m) acc[m] = _mm512_setzero_si512();
  for (int p = 0; p < t.kg; ++p, pa += kMR * 2, pb += kNR * 2) {
    const __m512i b = _mm512_cvtepu8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb)));
    for (int m = 0; m < kMR; ++m) {
      std::int32_t aw;
      std::memcpy(&aw, pa + 2 * m, sizeof(aw));
      acc[m] = _mm512_add_epi32(
          acc[m], _mm512_madd_epi16(_mm512_set1_epi32(aw), b));
    }
  }
  alignas(64) std::int32_t row[kNR];
  for (int m = 0; m < t.mv; ++m) {
    _mm512_store_si512(row, acc[m]);
    qepilogue_row(row, m, t);
  }
}

/// vpdpbusd quad kernel, AVX-512 VNNI: one 64-byte load covers a whole
/// k-quad step of the B panel; each row is a single dpbusd (u8 panel x
/// broadcast s8 quad, four products summed into the s32 accumulator) —
/// 4x the multiplies per instruction of the vpmulld kernel this replaces.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void qmicro_quad_vnni(
    const QTile& t) {
  const std::int8_t* pa = static_cast<const std::int8_t*>(t.pa);
  const std::uint8_t* pb = t.pb;
  __m512i acc[kMR];
  for (int m = 0; m < kMR; ++m) acc[m] = _mm512_setzero_si512();
  for (int p = 0; p < t.kg; ++p, pa += kMR * 4, pb += kNR * 4) {
    const __m512i b = _mm512_loadu_si512(pb);
    for (int m = 0; m < kMR; ++m) {
      std::int32_t aw;
      std::memcpy(&aw, pa + 4 * m, sizeof(aw));
      acc[m] = _mm512_dpbusd_epi32(acc[m], b, _mm512_set1_epi32(aw));
    }
  }
  alignas(64) std::int32_t row[kNR];
  for (int m = 0; m < t.mv; ++m) {
    _mm512_store_si512(row, acc[m]);
    qepilogue_row(row, m, t);
  }
}

#endif  // ADA_QGEMM_X86_DISPATCH

/// Packs the s8 weight matrix into ceil(M/kMR) panels of ceil(K/2) pair
/// steps x kMR s16 pairs — each (step, row) is one dword the kernels
/// broadcast whole.  An odd-K tail pads the second pair element with 0
/// (zero product no matter which B byte it meets), and rows past M pad
/// whole pairs with 0, exactly like the fp32 packer pads rows.
void pack_a_pairs(const std::int8_t* A, int M, int K, std::int16_t* pa) {
  const int kg = ceil_div(std::max(K, 1), 2);
  for (int i0 = 0; i0 < M; i0 += kMR) {
    const int mv = std::min(kMR, M - i0);
    for (int p = 0; p < kg; ++p, pa += kMR * 2) {
      const int k0 = 2 * p;
      const int k1 = k0 + 1;
      for (int m = 0; m < kMR; ++m) {
        if (m < mv) {
          const std::int8_t* row = A + static_cast<std::size_t>(i0 + m) * K;
          pa[2 * m] = row[k0];
          pa[2 * m + 1] = k1 < K ? row[k1] : std::int16_t{0};
        } else {
          pa[2 * m] = 0;
          pa[2 * m + 1] = 0;
        }
      }
    }
  }
}

/// VNNI layout: panels of ceil(K/4) quad steps x kMR s8 quads (again one
/// dword per step and row).  K-tail quad elements pad with 0.
void pack_a_quads(const std::int8_t* A, int M, int K, std::int8_t* pa) {
  const int kg = ceil_div(std::max(K, 1), 4);
  for (int i0 = 0; i0 < M; i0 += kMR) {
    const int mv = std::min(kMR, M - i0);
    for (int q = 0; q < kg; ++q, pa += kMR * 4) {
      for (int m = 0; m < kMR; ++m) {
        for (int u = 0; u < 4; ++u) {
          const int k = 4 * q + u;
          pa[4 * m + u] =
              (m < mv && k < K)
                  ? A[static_cast<std::size_t>(i0 + m) * K + k]
                  : std::int8_t{0};
        }
      }
    }
  }
}

/// The quantize_u8 recipe over a contiguous span: 16 lanes at a time with
/// the same multiply, magic round, zero-point add and select clamps as
/// quantize_lane, then a scalar tail.  This file builds with
/// -ffp-contract=off, so no ISA body may fuse x * inv + magic into an FMA
/// (which rounds once where the recipe rounds twice): every body writes
/// the bytes quantize_u8 would.
inline __attribute__((always_inline)) void quantize_span_body(
    const float* x, std::size_t n, const QuantParams& p, std::uint8_t* out) {
  const float inv = 1.0f / p.scale;
  const float fzp = static_cast<float>(p.zero_point);
  std::size_t i = 0;
#ifdef ADA_QGEMM_VECTOR_EXT
  const v16f vinv = v16f{} + inv;
  const v16f vzp = v16f{} + fzp;
  const v16f vzero = v16f{};
  const v16f vmax = v16f{} + 255.0f;
  const v16f vmagic = v16f{} + kRoundMagic;
  for (; i + 16 <= n; i += 16) {
    v16f q = *reinterpret_cast<const v16f_u*>(x + i) * vinv;
    q = (q + vmagic) - vmagic;  // round_ne, lane-wise
    q = q + vzp;
    q = q > vzero ? q : vzero;
    q = q < vmax ? q : vmax;
    *reinterpret_cast<v16u8*>(out + i) = __builtin_convertvector(
        __builtin_convertvector(q, v16s32), v16u8);
  }
#endif
  for (; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(quantize_lane(x[i], inv, fzp));
}

/// Packs rows [0, K) x cols [j0, j0+nc) of the row-major u8 operand B
/// (leading dimension ldb) into ceil(nc/kNR) panels of ceil(K/G) group
/// steps x (kNR x G) u8, k-groups innermost (column j's group bytes
/// adjacent).  The bytes are already quantized, so this only moves them.
/// Cols past nc and k positions past K pad with the zero point `zp`; the
/// k-tail pad meets a zero A pad (product 0) and padded columns are never
/// stored, so neither affects output.
template <int G>
inline __attribute__((always_inline)) void pack_b_groups(
    const std::uint8_t* B, std::ptrdiff_t ldb, int K, int j0, int nc,
    std::uint8_t zp, std::uint8_t* pb) {
  static_assert(G == 2 || G == 4, "k-group size is pairs or quads");
  const int kg = ceil_div(std::max(K, 1), G);
  for (int jr = 0; jr < nc; jr += kNR) {
    const int nv = std::min(kNR, nc - jr);
    const std::uint8_t* src = B + j0 + jr;
#ifdef ADA_QGEMM_VECTOR_EXT
    if (nv == kNR) {
      // Full panel: load each k row of the group as 16 bytes, then
      // byte-shuffle the group rows into the interleaved layout.
      const v16u8 vpad = v16u8{} + zp;
      for (int g = 0; g < kg; ++g, pb += kNR * G) {
        v16u8 rows[G];
        for (int u = 0; u < G; ++u) {
          const int k = g * G + u;
          rows[u] = k < K ? *reinterpret_cast<const v16u8*>(
                                src + static_cast<std::ptrdiff_t>(k) * ldb)
                          : vpad;
        }
        if constexpr (G == 2) {
          *reinterpret_cast<v16u8*>(pb) = __builtin_shufflevector(
              rows[0], rows[1], 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6,
              22, 7, 23);
          *reinterpret_cast<v16u8*>(pb + 16) = __builtin_shufflevector(
              rows[0], rows[1], 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29,
              14, 30, 15, 31);
        } else {
          const v16u8 p01_lo = __builtin_shufflevector(
              rows[0], rows[1], 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6,
              22, 7, 23);
          const v16u8 p01_hi = __builtin_shufflevector(
              rows[0], rows[1], 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29,
              14, 30, 15, 31);
          const v16u8 p23_lo = __builtin_shufflevector(
              rows[2], rows[3], 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6,
              22, 7, 23);
          const v16u8 p23_hi = __builtin_shufflevector(
              rows[2], rows[3], 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29,
              14, 30, 15, 31);
          *reinterpret_cast<v16u8*>(pb) = __builtin_shufflevector(
              p01_lo, p23_lo, 0, 1, 16, 17, 2, 3, 18, 19, 4, 5, 20, 21, 6, 7,
              22, 23);
          *reinterpret_cast<v16u8*>(pb + 16) = __builtin_shufflevector(
              p01_lo, p23_lo, 8, 9, 24, 25, 10, 11, 26, 27, 12, 13, 28, 29,
              14, 15, 30, 31);
          *reinterpret_cast<v16u8*>(pb + 32) = __builtin_shufflevector(
              p01_hi, p23_hi, 0, 1, 16, 17, 2, 3, 18, 19, 4, 5, 20, 21, 6, 7,
              22, 23);
          *reinterpret_cast<v16u8*>(pb + 48) = __builtin_shufflevector(
              p01_hi, p23_hi, 8, 9, 24, 25, 10, 11, 26, 27, 12, 13, 28, 29,
              14, 15, 30, 31);
        }
      }
      continue;
    }
#endif
    // Edge panels: byte by byte, same layout.
    for (int g = 0; g < kg; ++g, pb += kNR * G) {
      for (int j = 0; j < kNR; ++j) {
        for (int u = 0; u < G; ++u) {
          const int k = g * G + u;
          pb[j * G + u] =
              (j < nv && k < K) ? src[static_cast<std::ptrdiff_t>(k) * ldb + j]
                                : zp;
        }
      }
    }
  }
}

// One column stripe end to end: pack its B panels, then run every
// micro-tile.  Each stripe body is compiled for one ISA level and
// dispatched once (native CPUID capped by ADASCALE_ISA — tensor/gemm.h),
// together with the span quantizer for the same level.  Integer math is
// exact and the fp32 lane arithmetic is contraction-free
// (-ffp-contract=off, CMakeLists.txt), so every ISA produces identical
// bytes.
struct QStripeArgs {
  const std::uint8_t* B;  ///< row-major u8 operand
  std::ptrdiff_t ldb;
  int M, K;
  int j0, nc;
  const void* pa;    ///< packed A panels (s16 pairs or s8 quads)
  std::uint8_t* pb;  ///< this stripe's panel buffer (thread-local)
  float* C;
  int ldc;
  const float* row_scale;
  const std::int32_t* row_sum;
  int azp;
  const float* row_bias;
  bool relu;
};

using QStripeFn = void (*)(const QStripeArgs&);
using QMicroFn = void (*)(const QTile&);
using QSpanFn = void (*)(const float*, std::size_t, const QuantParams&,
                         std::uint8_t*);

template <int G, QMicroFn Micro>
inline __attribute__((always_inline)) void qstripe_run(const QStripeArgs& a) {
  pack_b_groups<G>(a.B, a.ldb, a.K, a.j0, a.nc,
                   static_cast<std::uint8_t>(a.azp), a.pb);
  const int kg = ceil_div(std::max(a.K, 1), G);
  // Both A layouts spend 4 bytes per (row, k-group): 2 s16 or 4 s8.
  const std::size_t a_panel = static_cast<std::size_t>(kMR) * 4 *
                              static_cast<std::size_t>(kg);
  const std::size_t b_panel = static_cast<std::size_t>(kNR) * G *
                              static_cast<std::size_t>(kg);
  for (int jr = 0; jr < a.nc; jr += kNR) {
    const std::uint8_t* panel_b =
        a.pb + static_cast<std::size_t>(jr / kNR) * b_panel;
    for (int i0 = 0; i0 < a.M; i0 += kMR) {
      QTile t;
      t.pa = static_cast<const std::uint8_t*>(a.pa) +
             static_cast<std::size_t>(i0 / kMR) * a_panel;
      t.pb = panel_b;
      t.c = a.C + static_cast<std::ptrdiff_t>(i0) * a.ldc + a.j0 + jr;
      t.ldc = a.ldc;
      t.kg = kg;
      t.mv = std::min(kMR, a.M - i0);
      t.nv = std::min(kNR, a.nc - jr);
      t.row_scale = a.row_scale + i0;
      t.row_sum = a.row_sum + i0;
      t.azp = a.azp;
      t.row_bias = a.row_bias != nullptr ? a.row_bias + i0 : nullptr;
      t.relu = a.relu;
      Micro(t);
    }
  }
}

void qstripe_generic(const QStripeArgs& a) {
  qstripe_run<2, qmicro_pair_generic>(a);
}
void quantize_span_generic(const float* x, std::size_t n,
                           const QuantParams& p, std::uint8_t* out) {
  quantize_span_body(x, n, p, out);
}

#ifdef ADA_QGEMM_X86_DISPATCH
__attribute__((target("avx2"))) void qstripe_avx2(const QStripeArgs& a) {
  qstripe_run<2, qmicro_pair_avx2>(a);
}
__attribute__((target("avx512f,avx512bw"))) void qstripe_avx512(
    const QStripeArgs& a) {
  qstripe_run<2, qmicro_pair_avx512>(a);
}
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void qstripe_vnni(
    const QStripeArgs& a) {
  qstripe_run<4, qmicro_quad_vnni>(a);
}
// Compiled for baseline x86-64 the span quantizer's u8 narrowing
// scalarizes; the targeted bodies keep it in vector registers.  VNNI adds
// nothing to quantization, so the VNNI dispatch shares the AVX-512 body.
__attribute__((target("avx2"))) void quantize_span_avx2(
    const float* x, std::size_t n, const QuantParams& p, std::uint8_t* out) {
  quantize_span_body(x, n, p, out);
}
__attribute__((target("avx512f,avx512bw"))) void quantize_span_avx512(
    const float* x, std::size_t n, const QuantParams& p, std::uint8_t* out) {
  quantize_span_body(x, n, p, out);
}
#endif

struct QDispatch {
  QStripeFn fn;
  QSpanFn quantize;
  KernelIsa isa;
  int group;  ///< reduction k-group size: 2 (pairs) or 4 (VNNI quads)
};

QDispatch dispatch_for(KernelIsa isa) {
#ifdef ADA_QGEMM_X86_DISPATCH
  switch (isa) {
    case KernelIsa::kVnni:
      return {qstripe_vnni, quantize_span_avx512, KernelIsa::kVnni, 4};
    case KernelIsa::kAvx512:
      return {qstripe_avx512, quantize_span_avx512, KernelIsa::kAvx512, 2};
    case KernelIsa::kAvx2:
      return {qstripe_avx2, quantize_span_avx2, KernelIsa::kAvx2, 2};
    default:
      break;
  }
#else
  (void)isa;
#endif
  return {qstripe_generic, quantize_span_generic, KernelIsa::kGeneric, 2};
}

/// Test/bench override (set_qgemm_isa); -1 means "use the capped
/// dispatch".  Relaxed atomics: the seam is for single-threaded setup.
std::atomic<int> g_qisa_override{-1};

QDispatch qstripe_dispatch() {
  static const QDispatch d = dispatch_for(kernel_isa_cap());
  const int ov = g_qisa_override.load(std::memory_order_relaxed);
  if (ov >= 0) return dispatch_for(static_cast<KernelIsa>(ov));
  return d;
}

/// Arena floats a byte request claims: the arena rounds every request up
/// to whole 64-byte cache lines.
std::size_t arena_floats_for_bytes(std::size_t bytes) {
  constexpr std::size_t kLine = 64;
  return (std::max<std::size_t>(bytes, 1) + kLine - 1) / kLine * kLine /
         sizeof(float);
}

}  // namespace

const char* qgemm_kernel_isa() {
  return kernel_isa_name(qstripe_dispatch().isa);
}

void set_qgemm_isa(KernelIsa isa) {
  if (isa > kernel_isa_native()) {
    std::fprintf(stderr,
                 "set_qgemm_isa(%s) requested but this CPU caps at %s; "
                 "aborting\n",
                 kernel_isa_name(isa), kernel_isa_name(kernel_isa_native()));
    std::abort();
  }
  g_qisa_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_qgemm_isa() {
  g_qisa_override.store(-1, std::memory_order_relaxed);
}

void quantize_u8_span(const float* x, std::size_t n, const QuantParams& p,
                      std::uint8_t* out) {
  qstripe_dispatch().quantize(x, n, p, out);
}

void qgemm_u8(int M, int N, int K, const QuantizedWeights& W,
              const std::uint8_t* B, std::ptrdiff_t ldb, float* C, int ldc,
              const float* bias, bool relu) {
  if (M <= 0 || N <= 0) return;
  assert(M == W.rows && K == W.cols);
  // u8 x s8 products are ≤ 255 * 127; the full-K int32 chain is exact
  // below this bound (header comment).  Every shape in this codebase is
  // orders of magnitude smaller.
  assert(static_cast<long long>(K) * 255 * 127 < 2147483647LL);

  const QDispatch& qd = qstripe_dispatch();
  const int kg = ceil_div(std::max(K, 1), qd.group);

  // The epilogue scale folds the per-tensor activation scale into the
  // per-channel weight scale once, outside the tile loops.
  ScratchFrame frame(&scratch_arena());
  float* row_scale = frame.alloc(static_cast<std::size_t>(M));
  for (int m = 0; m < M; ++m)
    row_scale[m] = W.act.scale * W.scale[static_cast<std::size_t>(m)];

  // Pack A once up front (shared, read-only); stripes own disjoint C
  // columns and pack their own B panels thread-locally.  A panels spend
  // one dword per (row, k-group) in both layouts.
  const std::size_t a_words = static_cast<std::size_t>(ceil_div(M, kMR)) *
                              kMR * static_cast<std::size_t>(kg);
  std::int32_t* pa = frame.alloc_as<std::int32_t>(a_words);
  if (qd.group == 4)
    pack_a_quads(W.q.data(), M, K, reinterpret_cast<std::int8_t*>(pa));
  else
    pack_a_pairs(W.q.data(), M, K, reinterpret_cast<std::int16_t*>(pa));

  const int stripes = ceil_div(N, kNC);
  parallel_for(stripes, 1, [&](std::int64_t sb, std::int64_t se) {
    for (std::int64_t s = sb; s < se; ++s) {
      const int j0 = static_cast<int>(s) * kNC;
      const int nc = std::min(kNC, N - j0);
      ScratchFrame f(&scratch_arena());
      QStripeArgs a;
      a.B = B;
      a.ldb = ldb;
      a.M = M;
      a.K = K;
      a.j0 = j0;
      a.nc = nc;
      a.pa = pa;
      a.pb = f.alloc_as<std::uint8_t>(
          static_cast<std::size_t>(ceil_div(nc, kNR)) * kNR *
          static_cast<std::size_t>(qd.group) * static_cast<std::size_t>(kg));
      a.C = C;
      a.ldc = ldc;
      a.row_scale = row_scale;
      a.row_sum = W.row_sum.data();
      a.azp = W.act.zero_point;
      a.row_bias = bias;
      a.relu = relu;
      qd.fn(a);
    }
  });
}

void qgemm(int M, int N, int K, const QuantizedWeights& W, const GemmMat& B,
           float* C, int ldc, const float* bias, bool relu) {
  if (M <= 0 || N <= 0) return;
  // Quantize the view once into a dense K x N byte matrix: unit-stride
  // rows through the span quantizer, strided ones (the linear path's
  // transposed view) element by element with the same recipe.
  ScratchFrame frame(&scratch_arena());
  std::uint8_t* q = frame.alloc_as<std::uint8_t>(
      static_cast<std::size_t>(std::max(K, 0)) * static_cast<std::size_t>(N));
  for (int k = 0; k < K; ++k) {
    const float* row = B.p + static_cast<std::ptrdiff_t>(k) * B.rs;
    std::uint8_t* dst = q + static_cast<std::size_t>(k) * N;
    if (B.cs == 1) {
      quantize_u8_span(row, static_cast<std::size_t>(N), W.act, dst);
    } else {
      for (int j = 0; j < N; ++j)
        dst[j] = quantize_u8(row[static_cast<std::ptrdiff_t>(j) * B.cs], W.act);
    }
  }
  qgemm_u8(M, N, K, W, q, N, C, ldc, bias, relu);
}

std::size_t qgemm_u8_workspace_floats(int M, int N, int K) {
  // Mirrors qgemm_u8's ScratchFrame allocations: row_scale (M floats), the
  // k-grouped A panels (one dword per row and k-group), and one u8 B
  // stripe panel on the calling thread.  The k-group size follows the
  // dispatched kernel (pairs, or quads under VNNI).
  const QDispatch& qd = qstripe_dispatch();
  const int kg = ceil_div(std::max(K, 1), qd.group);
  const std::size_t a_bytes = static_cast<std::size_t>(ceil_div(M, kMR)) *
                              kMR * static_cast<std::size_t>(kg) *
                              sizeof(std::int32_t);
  const int nc = std::min(std::max(N, 1), kNC);
  const std::size_t b_bytes = static_cast<std::size_t>(ceil_div(nc, kNR)) *
                              kNR * static_cast<std::size_t>(qd.group) *
                              static_cast<std::size_t>(kg);
  return arena_floats_for_bytes(static_cast<std::size_t>(M) * sizeof(float)) +
         arena_floats_for_bytes(a_bytes) + arena_floats_for_bytes(b_bytes);
}

std::size_t qgemm_workspace_floats(int M, int N, int K) {
  // qgemm's quantized operand, then the qgemm_u8 frame under it.
  return arena_floats_for_bytes(static_cast<std::size_t>(std::max(K, 0)) *
                                static_cast<std::size_t>(std::max(N, 0))) +
         qgemm_u8_workspace_floats(M, N, K);
}

}  // namespace ada
