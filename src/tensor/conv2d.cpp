#include "tensor/conv2d.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"

namespace ada {

namespace {

/// im2col: unpacks one image's input patches into a (in_c*k*k) x (oh*ow)
/// block of a column matrix held in the caller's scratch buffer.  `image`
/// points at the image's first channel plane (in_c planes of h x w
/// elements), `cols` at its first column, and `ld` is the full row length of
/// the matrix, so a batch lays its images side by side along the column axis
/// (image n occupies columns [n*oh*ow, (n+1)*oh*ow) of every row) and the
/// whole batch lowers onto a single GEMM.  Only pad-clipped edge cells are
/// filled with `pad` — the interior is written exactly once (memcpy rows for
/// stride 1), instead of filling the whole buffer and overwriting it.  The
/// fp32 paths (strided or reference forwards, backward) lower floats with
/// pad 0.0f; the int8 path lowers its quantized input bytes with the byte a
/// zero float quantizes to.
template <typename T>
void im2col(const T* image, int h, int w, const ConvSpec& s, int oh, int ow,
            T* cols, std::ptrdiff_t ld, T pad) {
  const int k = s.kernel;
  T* row = cols;
  for (int c = 0; c < s.in_channels; ++c)
    for (int ki = 0; ki < k; ++ki)
      for (int kj = 0; kj < k; ++kj, row += ld) {
        // Column index j reads input column j*stride + off.
        const int off = kj * s.dilation - s.pad;
        const int j_lo =
            off >= 0 ? 0 : (-off + s.stride - 1) / s.stride;
        const int j_hi =
            w - 1 - off >= 0 ? std::min(ow - 1, (w - 1 - off) / s.stride)
                             : -1;
        T* col = row;
        for (int i = 0; i < oh; ++i, col += ow) {
          const int hi = i * s.stride - s.pad + ki * s.dilation;
          if (hi < 0 || hi >= h || j_lo > j_hi) {
            std::fill_n(col, ow, pad);
            continue;
          }
          if (j_lo > 0) std::fill_n(col, j_lo, pad);
          if (j_hi < ow - 1) std::fill_n(col + j_hi + 1, ow - 1 - j_hi, pad);
          const T* src = image +
                         (static_cast<std::size_t>(c) * h + hi) * w +
                         (j_lo * s.stride + off);
          if (s.stride == 1) {
            std::memcpy(col + j_lo, src,
                        static_cast<std::size_t>(j_hi - j_lo + 1) * sizeof(T));
          } else {
            for (int j = j_lo; j <= j_hi; ++j)
              col[j] = src[static_cast<std::ptrdiff_t>(j - j_lo) * s.stride];
          }
        }
      }
}

/// col2im: scatters a column-matrix gradient back into dx (accumulating).
void col2im(const float* cols, int n, const ConvSpec& s, int oh, int ow,
            Tensor* dx) {
  const int k = s.kernel;
  const float* col = cols;
  for (int c = 0; c < s.in_channels; ++c)
    for (int ki = 0; ki < k; ++ki)
      for (int kj = 0; kj < k; ++kj) {
        for (int i = 0; i < oh; ++i) {
          int hi = i * s.stride - s.pad + ki * s.dilation;
          if (hi < 0 || hi >= dx->h()) {
            col += ow;
            continue;
          }
          for (int j = 0; j < ow; ++j) {
            int wj = j * s.stride - s.pad + kj * s.dilation;
            float v = *col++;
            if (wj >= 0 && wj < dx->w()) dx->at(n, c, hi, wj) += v;
          }
        }
      }
}

}  // namespace

void conv2d_forward(const ConvSpec& spec, const Tensor& x, const Tensor& w,
                    const Tensor& b, Tensor* y, bool fuse_relu,
                    GemmBackend backend) {
  assert(x.c() == spec.in_channels);
  assert(w.n() == spec.out_channels && w.c() == spec.in_channels &&
         w.h() == spec.kernel && w.w() == spec.kernel);
  const int oh = spec.out_dim(x.h());
  const int ow = spec.out_dim(x.w());
  assert(oh > 0 && ow > 0);
  if (y->n() != x.n() || y->c() != spec.out_channels || y->h() != oh ||
      y->w() != ow)
    *y = Tensor(x.n(), spec.out_channels, oh, ow);

  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int cells = oh * ow;
  const int batch = x.n();

  // y[oc, :] = W[oc, :] * cols (+ bias, + ReLU), with the bias/ReLU epilogue
  // fused into the tile write-out so the backbone never makes a separate
  // pass over the activation tensor.
  GemmEpilogue epi;
  epi.row_bias = b.empty() ? nullptr : b.data();
  epi.relu = fuse_relu;
  const GemmMat wmat{w.data(), patch, 1};

  // Stride 1 on the packed backend: the micro-kernel reads each image's
  // input in place and writes its NCHW block of y, so no column matrix is
  // built.  Each C element keeps im2col + sgemm's chain, so batched
  // outputs are bit-identical to per-image forwards.
  if (spec.stride == 1 && sconv_direct(spec, wmat, x.data(), batch, x.h(),
                                       x.w(), y->data(), epi, backend))
    return;

  // Otherwise (the reference oracle, or a strided conv) lower each image
  // to columns and run one sgemm straight into its NCHW block of y.
  ScratchFrame frame(&scratch_arena());
  float* cols = frame.alloc(static_cast<std::size_t>(patch) * cells);
  for (int n = 0; n < batch; ++n) {
    im2col(x.data() + static_cast<std::size_t>(n) * x.image_size(), x.h(),
           x.w(), spec, oh, ow, cols, cells, 0.0f);
    sgemm(spec.out_channels, cells, patch, wmat, GemmMat{cols, cells, 1},
          y->data() + static_cast<std::size_t>(n) * y->image_size(), cells,
          /*accumulate=*/false, epi, backend);
  }
}

void conv2d_forward_int8(const ConvSpec& spec, const Tensor& x,
                         const QuantizedWeights& qw, const Tensor& b,
                         Tensor* y, bool fuse_relu) {
  assert(x.c() == spec.in_channels);
  assert(qw.rows == spec.out_channels &&
         qw.cols == spec.in_channels * spec.kernel * spec.kernel);
  const int oh = spec.out_dim(x.h());
  const int ow = spec.out_dim(x.w());
  assert(oh > 0 && ow > 0);
  if (y->n() != x.n() || y->c() != spec.out_channels || y->h() != oh ||
      y->w() != ow)
    *y = Tensor(x.n(), spec.out_channels, oh, ow);

  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int cells = oh * ow;
  const int batch = x.n();
  const float* bias = b.empty() ? nullptr : b.data();

  // Quantize the input once (not once per tap), then lower the bytes.
  // Every column entry is an input value or a pad, quantization is per
  // element, and the pad byte is what a zero float quantizes to (the zero
  // point), so these columns equal the quantized fp32 im2col columns byte
  // for byte.  qgemm_u8's packing then only moves bytes, and its epilogue
  // dequantizes the int32 accumulators straight into y with bias +
  // optional ReLU fused.
  ScratchFrame frame(&scratch_arena());
  std::uint8_t* xq = frame.alloc_as<std::uint8_t>(x.size());
  quantize_u8_span(x.data(), x.size(), qw.act, xq);
  const std::uint8_t pad = quantize_u8(0.0f, qw.act);
  if (batch == 1) {
    std::uint8_t* cols =
        frame.alloc_as<std::uint8_t>(static_cast<std::size_t>(patch) * cells);
    im2col(xq, x.h(), x.w(), spec, oh, ow, cols, cells, pad);
    qgemm_u8(spec.out_channels, cells, patch, qw, cols, cells, y->data(),
             cells, bias, fuse_relu);
    return;
  }

  // Batch: images side by side along the GEMM N axis, then the oc-major
  // product scattered back to NCHW; integer accumulation is exact, so the
  // cross-stream batching composes with INT8 unchanged.
  const std::size_t total = static_cast<std::size_t>(batch) * cells;
  std::uint8_t* cols =
      frame.alloc_as<std::uint8_t>(static_cast<std::size_t>(patch) * total);
  parallel_for(batch, 1, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n)
      im2col(xq + static_cast<std::size_t>(n) * x.image_size(), x.h(), x.w(),
             spec, oh, ow, cols + static_cast<std::size_t>(n) * cells,
             static_cast<std::ptrdiff_t>(total), pad);
  });
  float* ybuf =
      frame.alloc(static_cast<std::size_t>(spec.out_channels) * total);
  qgemm_u8(spec.out_channels, static_cast<int>(total), patch, qw, cols,
           static_cast<std::ptrdiff_t>(total), ybuf, static_cast<int>(total),
           bias, fuse_relu);
  parallel_for(static_cast<std::int64_t>(batch) * spec.out_channels, 1,
               [&](std::int64_t rb, std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      const std::int64_t n = r / spec.out_channels;
      const std::int64_t oc = r % spec.out_channels;
      std::memcpy(y->data() + static_cast<std::size_t>(r) * cells,
                  ybuf + static_cast<std::size_t>(oc) * total +
                      static_cast<std::size_t>(n) * cells,
                  static_cast<std::size_t>(cells) * sizeof(float));
    }
  });
}

void conv2d_backward(const ConvSpec& spec, const Tensor& x, const Tensor& w,
                     const Tensor& dy, Tensor* dx, Tensor* dw, Tensor* db) {
  const int oh = spec.out_dim(x.h());
  const int ow = spec.out_dim(x.w());
  assert(dy.c() == spec.out_channels && dy.h() == oh && dy.w() == ow);
  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int cells = oh * ow;

  ScratchFrame frame(&scratch_arena());
  float* cols =
      dw != nullptr
          ? frame.alloc(static_cast<std::size_t>(patch) * cells)
          : nullptr;
  float* dcols =
      dx != nullptr
          ? frame.alloc(static_cast<std::size_t>(patch) * cells)
          : nullptr;

  for (int n = 0; n < x.n(); ++n) {
    const float* dyn =
        dy.data() + static_cast<std::size_t>(n) * spec.out_channels * cells;

    if (dw != nullptr) {
      // dW[oc, p] += dy[oc, :] * cols[p, :]^T — GEMM with B read transposed
      // (stride trick; packing materializes the panels).
      im2col(x.data() + static_cast<std::size_t>(n) * x.image_size(), x.h(),
             x.w(), spec, oh, ow, cols, cells, 0.0f);
      sgemm(spec.out_channels, patch, cells, GemmMat{dyn, cells, 1},
            GemmMat{cols, 1, cells}, dw->data(), patch,
            /*accumulate=*/true);
    }
    if (db != nullptr) {
      // Per-channel double accumulator, cells ascending — each channel owns
      // its db entry, so the parallel split over channels is bit-identical
      // to the serial loop.
      parallel_for(spec.out_channels, 1,
                   [&](std::int64_t ob, std::int64_t oe) {
        for (std::int64_t oc = ob; oc < oe; ++oc) {
          const float* grow = dyn + static_cast<std::size_t>(oc) * cells;
          double acc = 0.0;
          for (int cell = 0; cell < cells; ++cell) acc += grow[cell];
          (*db)[static_cast<std::size_t>(oc)] += static_cast<float>(acc);
        }
      });
    }
    if (dx != nullptr) {
      // dcols = W^T * dy (A read transposed via strides); then col2im.
      sgemm(patch, cells, spec.out_channels, GemmMat{w.data(), 1, patch},
            GemmMat{dyn, cells, 1}, dcols, cells, /*accumulate=*/false);
      col2im(dcols, n, spec, oh, ow, dx);
    }
  }
}

long long conv2d_macs(const ConvSpec& spec, int in_h, int in_w) {
  long long oh = spec.out_dim(in_h);
  long long ow = spec.out_dim(in_w);
  return oh * ow * spec.out_channels * spec.in_channels * spec.kernel *
         spec.kernel;
}

std::size_t conv2d_forward_workspace_floats(const ConvSpec& spec, int n,
                                            int in_h, int in_w,
                                            KernelKind kernel) {
  // Mirrors the ScratchFrame allocations of conv2d_forward /
  // conv2d_forward_int8 above, with the arena's cache-line rounding.
  const auto lines = [](std::size_t floats) {
    constexpr std::size_t kLine = 64 / sizeof(float);
    return (std::max<std::size_t>(floats, 1) + kLine - 1) / kLine * kLine;
  };
  const auto byte_lines = [&](std::size_t bytes) {
    return lines((bytes + sizeof(float) - 1) / sizeof(float));
  };
  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t images = static_cast<std::size_t>(std::max(n, 1));
  const std::size_t cells = static_cast<std::size_t>(spec.out_dim(in_h)) *
                            static_cast<std::size_t>(spec.out_dim(in_w));
  const int N = static_cast<int>(cells);
  switch (kernel) {
    case KernelKind::kInt8: {
      // The quantized input, the byte columns of the whole batch, the
      // batched path's oc-major staging, then qgemm_u8's panels.
      const std::size_t total = images * cells;
      std::size_t ws =
          byte_lines(images * static_cast<std::size_t>(spec.in_channels) *
                     static_cast<std::size_t>(in_h) *
                     static_cast<std::size_t>(in_w)) +
          byte_lines(static_cast<std::size_t>(patch) * total) +
          qgemm_u8_workspace_floats(spec.out_channels, static_cast<int>(total),
                                    patch);
      if (n > 1)
        ws += lines(static_cast<std::size_t>(spec.out_channels) * total);
      return ws;
    }
    case KernelKind::kGemmReference:
      // One image's columns; the reference sgemm packs nothing.
      return lines(static_cast<std::size_t>(patch) * cells) +
             sgemm_workspace_floats(spec.out_channels, N, patch,
                                    GemmBackend::kReference);
    default:
      // The direct path pads every image up front; the im2col fallback
      // reuses one image's columns and panels for every image.
      if (spec.stride == 1)
        return sconv_direct_workspace_floats(spec, n, in_h, in_w);
      return lines(static_cast<std::size_t>(patch) * cells) +
             sgemm_workspace_floats(spec.out_channels, N, patch,
                                    GemmBackend::kPacked);
  }
}

}  // namespace ada
