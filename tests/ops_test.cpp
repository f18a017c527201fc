#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace ada {
namespace {

TEST(Ops, AxpyAccumulates) {
  Tensor x = Tensor::vec(3), y = Tensor::vec(3);
  x[0] = 1; x[1] = 2; x[2] = 3;
  y.fill(1.0f);
  axpy(2.0f, x, &y);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 5.0f);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
}

TEST(Ops, ReluForwardClampsNegatives) {
  Tensor x = Tensor::vec(4);
  x[0] = -1; x[1] = 0; x[2] = 2; x[3] = -0.5f;
  Tensor y;
  relu_forward(x, &y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(Ops, ReluBackwardGatesGradient) {
  Tensor x = Tensor::vec(3);
  x[0] = -1; x[1] = 1; x[2] = 3;
  Tensor dy = Tensor::vec(3);
  dy.fill(5.0f);
  Tensor dx = Tensor::vec(3);
  relu_backward(x, dy, &dx);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 5.0f);
  EXPECT_FLOAT_EQ(dx[2], 5.0f);
}

TEST(Ops, ScaleMultiplies) {
  Tensor x = Tensor::vec(2);
  x[0] = 2; x[1] = -4;
  scale(&x, 0.5f);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -2.0f);
}

TEST(Ops, GlobalAvgPoolAverages) {
  Tensor x = Tensor::chw(2, 2, 2);
  // channel 0: 1,2,3,4 -> 2.5 ; channel 1: all 8 -> 8
  x.at(0, 0, 0, 0) = 1; x.at(0, 0, 0, 1) = 2;
  x.at(0, 0, 1, 0) = 3; x.at(0, 0, 1, 1) = 4;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) x.at(0, 1, i, j) = 8;
  Tensor y;
  global_avg_pool_forward(x, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 8.0f);
}

TEST(Ops, GlobalAvgPoolBackwardSpreadsEvenly) {
  Tensor x = Tensor::chw(1, 2, 2);
  Tensor dy(1, 1, 1, 1);
  dy[0] = 4.0f;
  Tensor dx = Tensor::chw(1, 2, 2);
  global_avg_pool_backward(x, dy, &dx);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

TEST(Ops, MaxPoolPicksMaxAndArgmax) {
  Tensor x = Tensor::chw(1, 4, 4);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y;
  std::vector<int> argmax;
  maxpool2_forward(x, &y, &argmax);
  ASSERT_EQ(y.h(), 2);
  ASSERT_EQ(y.w(), 2);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 15.0f);
  EXPECT_EQ(argmax[0], 5);
  EXPECT_EQ(argmax[3], 15);
}

TEST(Ops, MaxPoolBackwardRoutesToArgmax) {
  Tensor x = Tensor::chw(1, 2, 2);
  x.at(0, 0, 0, 0) = 1; x.at(0, 0, 0, 1) = 9;
  x.at(0, 0, 1, 0) = 3; x.at(0, 0, 1, 1) = 2;
  Tensor y;
  std::vector<int> argmax;
  maxpool2_forward(x, &y, &argmax);
  Tensor dy(1, 1, 1, 1);
  dy[0] = 7.0f;
  Tensor dx = Tensor::chw(1, 2, 2);
  maxpool2_backward(dy, argmax, &dx);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.0f);
}

TEST(Ops, MaxPoolOddSizeFloors) {
  Tensor x = Tensor::chw(1, 5, 7);
  Tensor y;
  std::vector<int> argmax;
  maxpool2_forward(x, &y, &argmax);
  EXPECT_EQ(y.h(), 2);
  EXPECT_EQ(y.w(), 3);
}

TEST(Ops, MaxPoolValuesOnlyMatchesArgmaxPoolByteForByte) {
  // The planned (values-only) pool must reproduce the training pool's
  // bytes on every input, including the ones its comparison rule decides:
  // NaN taps, ±0 ties, windows entirely below the -1e30 start, denormals.
  // The argmax path is itself checked against the rule spelled out tap by
  // tap through Tensor::at.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {nan,    inf,   -inf,  0.0f,   -0.0f,
                            -2e30f, -1e30f, denorm, -denorm, 1e-39f};
  const int num_specials = static_cast<int>(sizeof specials / sizeof *specials);
  Rng rng(2024);
  int nan_taps = 0, zero_ties = 0, no_winner = 0;
  for (int t = 0; t < 2000; ++t) {
    const int n_dim = rng.uniform_int(1, 2);
    const int c_dim = rng.uniform_int(1, 3);
    const int h_dim = rng.uniform_int(2, 10);
    const int w_dim = rng.uniform_int(2, 10);
    Tensor x(n_dim, c_dim, h_dim, w_dim);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = rng.chance(1.0f / 3.0f)
                 ? specials[rng.uniform_int(0, num_specials - 1)]
                 : rng.uniform(-1.0f, 1.0f);
    Tensor with_argmax, values_only;
    std::vector<int> argmax;
    maxpool2_forward(x, &with_argmax, &argmax);
    maxpool2_forward(x, &values_only, nullptr);
    ASSERT_TRUE(values_only.same_shape(with_argmax)) << "tensor " << t;
    ASSERT_EQ(0, std::memcmp(values_only.data(), with_argmax.data(),
                             with_argmax.size() * sizeof(float)))
        << "tensor " << t << " " << x.shape_str();

    std::size_t o = 0;
    for (int n = 0; n < x.n(); ++n)
      for (int c = 0; c < x.c(); ++c)
        for (int i = 0; i < x.h() / 2; ++i)
          for (int j = 0; j < x.w() / 2; ++j, ++o) {
            float best = -1e30f;
            int best_flat = 0;
            for (int di = 0; di < 2; ++di)
              for (int dj = 0; dj < 2; ++dj) {
                const float v = x.at(n, c, 2 * i + di, 2 * j + dj);
                nan_taps += std::isnan(v) ? 1 : 0;
                zero_ties += v == best && std::signbit(v) != std::signbit(best);
                if (v > best) {
                  best = v;
                  best_flat = static_cast<int>(
                      &x.at(n, c, 2 * i + di, 2 * j + dj) - x.data());
                }
              }
            no_winner += best == -1e30f ? 1 : 0;
            ASSERT_EQ(0, std::memcmp(&best, &with_argmax[o], sizeof best))
                << "tensor " << t << " output " << o;
            ASSERT_EQ(best_flat, argmax[o])
                << "tensor " << t << " output " << o;
          }
  }
  // The inputs really reach the cases the rule decides.
  EXPECT_GT(nan_taps, 0);
  EXPECT_GT(zero_ties, 0);
  EXPECT_GT(no_winner, 0);
}

TEST(Ops, SoftmaxRowsNormalizes) {
  Tensor x(2, 3, 1, 1);
  x.at(0, 0, 0, 0) = 1; x.at(0, 1, 0, 0) = 2; x.at(0, 2, 0, 0) = 3;
  x.at(1, 0, 0, 0) = 100; x.at(1, 1, 0, 0) = 100; x.at(1, 2, 0, 0) = 100;
  Tensor y;
  softmax_rows(x, &y);
  float s0 = y.at(0, 0, 0, 0) + y.at(0, 1, 0, 0) + y.at(0, 2, 0, 0);
  EXPECT_NEAR(s0, 1.0f, 1e-5f);
  EXPECT_GT(y.at(0, 2, 0, 0), y.at(0, 0, 0, 0));
  EXPECT_NEAR(y.at(1, 0, 0, 0), 1.0f / 3.0f, 1e-5f);
}

TEST(Ops, SoftmaxStableForLargeLogits) {
  Tensor x(1, 2, 1, 1);
  x.at(0, 0, 0, 0) = 1000.0f;
  x.at(0, 1, 0, 0) = 999.0f;
  Tensor y;
  softmax_rows(x, &y);
  EXPECT_NEAR(y.at(0, 0, 0, 0) + y.at(0, 1, 0, 0), 1.0f, 1e-5f);
  EXPECT_FALSE(std::isnan(y.at(0, 0, 0, 0)));
}

}  // namespace
}  // namespace ada
