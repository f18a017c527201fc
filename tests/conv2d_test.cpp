// Convolution correctness: hand-computed cases, numerical gradient checks,
// and the packed forward pinned bitwise to im2col + packed sgemm.
#include "tensor/conv2d.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/gemm.h"
#include "util/rng.h"

namespace ada {
namespace {

void fill_random(Tensor* t, Rng* rng, float scale = 1.0f) {
  for (std::size_t i = 0; i < t->size(); ++i) t->storage()[i] = rng->normal() * scale;
}

/// Direct (definition-based) convolution for cross-checking im2col.
void conv_reference(const ConvSpec& s, const Tensor& x, const Tensor& w,
                    const Tensor& b, Tensor* y) {
  const int oh = s.out_dim(x.h()), ow = s.out_dim(x.w());
  *y = Tensor(x.n(), s.out_channels, oh, ow);
  for (int n = 0; n < x.n(); ++n)
    for (int oc = 0; oc < s.out_channels; ++oc)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) {
          double acc = b.empty() ? 0.0 : b[static_cast<std::size_t>(oc)];
          for (int ic = 0; ic < s.in_channels; ++ic)
            for (int ki = 0; ki < s.kernel; ++ki)
              for (int kj = 0; kj < s.kernel; ++kj) {
                const int hi = i * s.stride - s.pad + ki * s.dilation;
                const int wj = j * s.stride - s.pad + kj * s.dilation;
                if (hi < 0 || hi >= x.h() || wj < 0 || wj >= x.w()) continue;
                acc += static_cast<double>(x.at(n, ic, hi, wj)) *
                       w.at(oc, ic, ki, kj);
              }
          y->at(n, oc, i, j) = static_cast<float>(acc);
        }
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  ConvSpec s{1, 1, 1, 1, 0};
  Tensor x = Tensor::chw(1, 3, 3);
  for (int i = 0; i < 9; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
  Tensor w(1, 1, 1, 1);
  w[0] = 1.0f;
  Tensor b(1, 1, 1, 1);
  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)]);
}

TEST(Conv2d, BiasIsAdded) {
  ConvSpec s{1, 2, 1, 1, 0};
  Tensor x = Tensor::chw(1, 2, 2);
  x.fill(1.0f);
  Tensor w(2, 1, 1, 1);
  w[0] = 0.0f;
  w[1] = 0.0f;
  Tensor b(1, 2, 1, 1);
  b[0] = 3.0f;
  b[1] = -1.0f;
  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -1.0f);
}

TEST(Conv2d, MatchesReferenceImplementation) {
  Rng rng(5);
  for (int kernel : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      ConvSpec s{3, 4, kernel, stride, kernel / 2};
      Tensor x = Tensor::chw(3, 9, 11);
      fill_random(&x, &rng);
      Tensor w(4, 3, kernel, kernel);
      fill_random(&w, &rng);
      Tensor b(1, 4, 1, 1);
      fill_random(&b, &rng);
      Tensor y, y_ref;
      conv2d_forward(s, x, w, b, &y);
      conv_reference(s, x, w, b, &y_ref);
      ASSERT_TRUE(y.same_shape(y_ref)) << "kernel=" << kernel;
      for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-4f) << "kernel=" << kernel << " i=" << i;
    }
  }
}

TEST(Conv2d, OutDimFloorSemantics) {
  ConvSpec s{1, 1, 3, 2, 1};
  EXPECT_EQ(s.out_dim(7), 4);
  EXPECT_EQ(s.out_dim(8), 4);
  ConvSpec p{1, 1, 3, 1, 1};
  EXPECT_EQ(p.out_dim(10), 10);
}

TEST(Conv2d, MacsScaleWithArea) {
  ConvSpec s{3, 8, 3, 1, 1};
  const long long m1 = conv2d_macs(s, 10, 10);
  const long long m2 = conv2d_macs(s, 20, 20);
  EXPECT_EQ(m2, 4 * m1);
}

/// Numerical gradient check of the full backward pass.
TEST(Conv2d, GradientsMatchNumerical) {
  Rng rng(17);
  ConvSpec s{2, 3, 3, 1, 1};
  Tensor x = Tensor::chw(2, 5, 6);
  fill_random(&x, &rng, 0.5f);
  Tensor w(3, 2, 3, 3);
  fill_random(&w, &rng, 0.5f);
  Tensor b(1, 3, 1, 1);
  fill_random(&b, &rng, 0.5f);

  // Loss = sum(y * r) for a fixed random r => dy = r.
  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  Tensor r(y.n(), y.c(), y.h(), y.w());
  fill_random(&r, &rng, 1.0f);

  Tensor dx(x.n(), x.c(), x.h(), x.w());
  Tensor dw(w.n(), w.c(), w.h(), w.w());
  Tensor db(1, 3, 1, 1);
  conv2d_backward(s, x, w, r, &dx, &dw, &db);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor yy;
    conv2d_forward(s, xx, ww, bb, &yy);
    double acc = 0;
    for (std::size_t i = 0; i < yy.size(); ++i) acc += static_cast<double>(yy[i]) * r[i];
    return acc;
  };

  const float eps = 1e-3f;
  // Check a sample of coordinates of each gradient.
  for (std::size_t i = 0; i < x.size(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(dx[i], num, 5e-2) << "dx[" << i << "]";
  }
  for (std::size_t i = 0; i < w.size(); i += 5) {
    Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const double num = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(dw[i], num, 5e-2) << "dw[" << i << "]";
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    Tensor bp = b, bm = b;
    bp[i] += eps;
    bm[i] -= eps;
    const double num = (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(db[i], num, 5e-2) << "db[" << i << "]";
  }
}

TEST(Conv2d, BackwardAccumulates) {
  // Calling backward twice must double the weight gradient.
  Rng rng(23);
  ConvSpec s{1, 1, 3, 1, 1};
  Tensor x = Tensor::chw(1, 4, 4);
  fill_random(&x, &rng);
  Tensor w(1, 1, 3, 3);
  fill_random(&w, &rng);
  Tensor dy = Tensor::chw(1, 4, 4);
  fill_random(&dy, &rng);
  Tensor dw1(1, 1, 3, 3), dw2(1, 1, 3, 3);
  conv2d_backward(s, x, w, dy, nullptr, &dw1, nullptr);
  conv2d_backward(s, x, w, dy, nullptr, &dw2, nullptr);
  conv2d_backward(s, x, w, dy, nullptr, &dw2, nullptr);
  for (std::size_t i = 0; i < dw1.size(); ++i)
    EXPECT_NEAR(dw2[i], 2.0f * dw1[i], 1e-4f);
}

TEST(Conv2d, DilatedForwardMatchesReference) {
  // dilation=2, pad=2 keeps the spatial size for k=3 (effective kernel 5).
  Rng rng(23);
  ConvSpec s{2, 3, 3, 1, 2, 2};
  EXPECT_EQ(s.effective_kernel(), 5);
  Tensor x = Tensor::chw(2, 7, 9);
  fill_random(&x, &rng);
  Tensor w(3, 2, 3, 3);
  fill_random(&w, &rng);
  Tensor b(1, 3, 1, 1);
  fill_random(&b, &rng);

  Tensor y, ref;
  conv2d_forward(s, x, w, b, &y);
  conv_reference(s, x, w, b, &ref);
  ASSERT_TRUE(y.same_shape(ref));
  EXPECT_EQ(y.h(), 7);
  EXPECT_EQ(y.w(), 9);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4f);
}

/// Numerical gradient check of the dilated backward path (the detector's
/// conv4 runs with dilation 4; the plain checks above only cover dilation 1,
/// where the dilated indexing degenerates to the old code).
TEST(Conv2d, DilatedGradientsMatchNumerical) {
  Rng rng(29);
  ConvSpec s{2, 3, 3, 1, 2, 2};
  Tensor x = Tensor::chw(2, 6, 5);
  fill_random(&x, &rng, 0.5f);
  Tensor w(3, 2, 3, 3);
  fill_random(&w, &rng, 0.5f);
  Tensor b(1, 3, 1, 1);
  fill_random(&b, &rng, 0.5f);

  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  Tensor r(y.n(), y.c(), y.h(), y.w());
  fill_random(&r, &rng, 1.0f);

  Tensor dx(x.n(), x.c(), x.h(), x.w());
  Tensor dw(w.n(), w.c(), w.h(), w.w());
  Tensor db(1, 3, 1, 1);
  conv2d_backward(s, x, w, r, &dx, &dw, &db);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor yy;
    conv2d_forward(s, xx, ww, bb, &yy);
    double acc = 0;
    for (std::size_t i = 0; i < yy.size(); ++i)
      acc += static_cast<double>(yy[i]) * r[i];
    return acc;
  };

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(dx[i], num, 5e-2) << "dx[" << i << "]";
  }
  for (std::size_t i = 0; i < w.size(); i += 5) {
    Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const double num = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(dw[i], num, 5e-2) << "dw[" << i << "]";
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    Tensor bp = b, bm = b;
    bp[i] += eps;
    bm[i] -= eps;
    const double num = (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(db[i], num, 5e-2) << "db[" << i << "]";
  }
}

/// The lowering oracle: image n's (in_c*k*k) x (oh*ow) column matrix, rows
/// in (c, ki, kj) order, pad taps +0.0.
std::vector<float> im2col_oracle(const ConvSpec& s, const Tensor& x, int n) {
  const int oh = s.out_dim(x.h()), ow = s.out_dim(x.w());
  std::vector<float> cols;
  for (int c = 0; c < s.in_channels; ++c)
    for (int ki = 0; ki < s.kernel; ++ki)
      for (int kj = 0; kj < s.kernel; ++kj)
        for (int i = 0; i < oh; ++i)
          for (int j = 0; j < ow; ++j) {
            const int hi = i * s.stride - s.pad + ki * s.dilation;
            const int wj = j * s.stride - s.pad + kj * s.dilation;
            const bool in = hi >= 0 && hi < x.h() && wj >= 0 && wj < x.w();
            cols.push_back(in ? x.at(n, c, hi, wj) : 0.0f);
          }
  return cols;
}

/// A value for an adversarial input: mostly N(0, 1), with +-0, denormals,
/// +-inf and NaN mixed in at `special_rate`.
float adversarial(Rng* rng, float special_rate) {
  if (rng->uniform() >= special_rate) return rng->normal();
  switch (rng->uniform_int(0, 7)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return 1e-40f;
    case 3: return -3e-39f;
    case 4: return std::numeric_limits<float>::infinity();
    case 5: return -std::numeric_limits<float>::infinity();
    case 6: return std::numeric_limits<float>::quiet_NaN();
    default: return -std::numeric_limits<float>::quiet_NaN();
  }
}

/// The packed forward (which reads stride-1 inputs in place) equals
/// im2col + packed sgemm bit for bit: every non-NaN output has the same
/// bits and every NaN output is NaN.  The grid crosses the pad ring (pad 0,
/// k/2, 4), the dilated taps, widths around the 16-lane tile edge, out_c
/// around the 6-row panel edge, a K over the 512-deep K block, both
/// epilogues, batches of 1 and 3, and batches split across tasks mid-image.
TEST(Conv2d, PackedMatchesIm2colSgemmBitwise) {
  Rng rng(31);
  struct Case {
    ConvSpec spec;
    int n, h, w;
    bool bias, relu;
    float special_rate;
  };
  std::vector<Case> cases;
  const int widths[] = {1, 7, 15, 16, 17, 33, 40};
  const int out_cs[] = {1, 5, 6, 7, 13};
  int idx = 0;
  for (int kernel : {1, 3, 5})
    for (int pad_sel = 0; pad_sel < 3; ++pad_sel)
      for (int dilation : {1, 4})
        for (int w : widths) {
          const int pad = pad_sel == 0 ? 0 : pad_sel == 1 ? kernel / 2 : 4;
          ConvSpec s{1 + idx % 5, out_cs[idx % 5], kernel, 1, pad, dilation};
          // The smallest height with an output row, plus 0-2 rows.
          const int h = std::max(1, s.effective_kernel() - 2 * pad) + idx % 3;
          if (s.out_dim(w) > 0)
            cases.push_back({s, idx % 4 == 3 ? 3 : 1, h, w, idx % 2 == 0,
                             idx % 3 != 1, idx % 4 == 1 ? 0.0f : 0.02f});
          ++idx;
        }
  // K = 64 * 9 = 576 spans two K blocks; stride 2 keeps the im2col path.
  cases.push_back({ConvSpec{64, 7, 3, 1, 1, 1}, 1, 5, 17, true, true, 0.0f});
  cases.push_back({ConvSpec{64, 13, 3, 1, 4, 4}, 3, 3, 19, true, false, 0.01f});
  cases.push_back({ConvSpec{3, 5, 3, 2, 1, 1}, 3, 9, 33, true, true, 0.02f});
  // Batches over 1024 output cells split into several tasks whose tile runs
  // start and end inside an image: 3x3 (4 tasks over 3 images of 30 rows)
  // and 1x1 (2 tasks over 3 images of one 589-pixel row).
  cases.push_back({ConvSpec{3, 7, 3, 1, 1, 1}, 3, 30, 37, true, true, 0.01f});
  cases.push_back({ConvSpec{5, 6, 1, 1, 0, 1}, 3, 19, 31, true, false, 0.01f});
  ASSERT_GT(cases.size(), 100u);

  for (const Case& c : cases) {
    const ConvSpec& s = c.spec;
    Tensor x(c.n, s.in_channels, c.h, c.w);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = adversarial(&rng, c.special_rate);
    Tensor w(s.out_channels, s.in_channels, s.kernel, s.kernel);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = adversarial(&rng, 0.0f);
    Tensor b;
    if (c.bias) {
      b = Tensor(1, s.out_channels, 1, 1);
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
    }

    Tensor y;
    conv2d_forward(s, x, w, b, &y, c.relu, GemmBackend::kPacked);

    const int oh = s.out_dim(c.h), ow = s.out_dim(c.w);
    const int patch = s.in_channels * s.kernel * s.kernel;
    const int cells = oh * ow;
    ASSERT_EQ(y.n(), c.n);
    ASSERT_EQ(y.c(), s.out_channels);
    ASSERT_EQ(y.h(), oh);
    ASSERT_EQ(y.w(), ow);
    GemmEpilogue epi;
    epi.row_bias = c.bias ? b.data() : nullptr;
    epi.relu = c.relu;
    std::vector<float> want(y.size());
    for (int n = 0; n < c.n; ++n) {
      const std::vector<float> cols = im2col_oracle(s, x, n);
      sgemm(s.out_channels, cells, patch, GemmMat{w.data(), patch, 1},
            GemmMat{cols.data(), cells, 1},
            want.data() + static_cast<std::size_t>(n) * s.out_channels * cells,
            cells, /*accumulate=*/false, epi, GemmBackend::kPacked);
    }

    std::size_t mismatches = 0, nans = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::isnan(want[i])) {
        ++nans;
        if (!std::isnan(y[i])) ++mismatches;
      } else if (std::memcmp(&want[i], &y[i], sizeof(float)) != 0) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << "in_c=" << s.in_channels << " out_c=" << s.out_channels
        << " k=" << s.kernel << " stride=" << s.stride << " pad=" << s.pad
        << " dilation=" << s.dilation << " n=" << c.n << " h=" << c.h
        << " w=" << c.w << " bias=" << c.bias << " relu=" << c.relu
        << " (" << nans << " NaN outputs)";
  }
}

}  // namespace
}  // namespace ada
