#include "tensor/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace ada {
namespace {

TEST(Loss, SoftmaxSpanNormalizes) {
  float logits[3] = {0.0f, 1.0f, 2.0f};
  float probs[3];
  softmax_span(logits, 3, probs);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-5f);
  EXPECT_GT(probs[2], probs[1]);
  EXPECT_GT(probs[1], probs[0]);
}

TEST(Loss, CrossEntropyOfUniformIsLogK) {
  float logits[4] = {0, 0, 0, 0};
  const float l = softmax_cross_entropy_span(logits, 4, 2, nullptr);
  EXPECT_NEAR(l, std::log(4.0f), 1e-5f);
}

TEST(Loss, CrossEntropyConfidentCorrectIsSmall) {
  float logits[3] = {10.0f, 0.0f, 0.0f};
  EXPECT_LT(softmax_cross_entropy_span(logits, 3, 0, nullptr), 1e-3f);
  EXPECT_GT(softmax_cross_entropy_span(logits, 3, 1, nullptr), 5.0f);
}

TEST(Loss, CrossEntropyGradientIsProbMinusOneHot) {
  float logits[3] = {1.0f, 2.0f, 0.5f};
  float probs[3];
  softmax_span(logits, 3, probs);
  float grad[3] = {0, 0, 0};
  softmax_cross_entropy_span(logits, 3, 1, grad);
  EXPECT_NEAR(grad[0], probs[0], 1e-5f);
  EXPECT_NEAR(grad[1], probs[1] - 1.0f, 1e-5f);
  EXPECT_NEAR(grad[2], probs[2], 1e-5f);
}

TEST(Loss, CrossEntropyGradientMatchesNumerical) {
  float base[3] = {0.3f, -0.7f, 1.2f};
  float grad[3] = {0, 0, 0};
  softmax_cross_entropy_span(base, 3, 0, grad);
  const float eps = 1e-3f;
  for (int i = 0; i < 3; ++i) {
    float p[3] = {base[0], base[1], base[2]};
    float m[3] = {base[0], base[1], base[2]};
    p[i] += eps;
    m[i] -= eps;
    const float num = (softmax_cross_entropy_span(p, 3, 0, nullptr) -
                       softmax_cross_entropy_span(m, 3, 0, nullptr)) /
                      (2 * eps);
    EXPECT_NEAR(grad[i], num, 1e-3f);
  }
}

TEST(Loss, TensorWrapperMatchesSpan) {
  Tensor logits = Tensor::vec(3);
  logits[0] = 1.0f; logits[1] = 0.0f; logits[2] = -1.0f;
  const float a = softmax_cross_entropy(logits, 0, nullptr);
  const float b = softmax_cross_entropy_span(logits.data(), 3, 0, nullptr);
  EXPECT_FLOAT_EQ(a, b);
}

TEST(Loss, SmoothL1QuadraticInside) {
  float pred[1] = {0.5f}, target[1] = {0.0f};
  EXPECT_NEAR(smooth_l1(pred, target, 1, nullptr), 0.125f, 1e-6f);
}

TEST(Loss, SmoothL1LinearOutside) {
  float pred[1] = {3.0f}, target[1] = {0.0f};
  EXPECT_NEAR(smooth_l1(pred, target, 1, nullptr), 2.5f, 1e-6f);
}

TEST(Loss, SmoothL1GradientContinuousAtOne) {
  float target[1] = {0.0f};
  float g_in[1] = {0}, g_out[1] = {0};
  float just_in[1] = {0.999f}, just_out[1] = {1.001f};
  smooth_l1(just_in, target, 1, g_in);
  smooth_l1(just_out, target, 1, g_out);
  EXPECT_NEAR(g_in[0], g_out[0], 0.01f);
}

TEST(Loss, SmoothL1SumsOverElements) {
  float pred[3] = {0.5f, -0.5f, 2.0f};
  float target[3] = {0.0f, 0.0f, 0.0f};
  EXPECT_NEAR(smooth_l1(pred, target, 3, nullptr), 0.125f + 0.125f + 1.5f,
              1e-6f);
}

TEST(Loss, SmoothL1SymmetricGradient) {
  float target[1] = {0.0f};
  float gp[1] = {0}, gm[1] = {0};
  float pp[1] = {0.3f}, pm[1] = {-0.3f};
  smooth_l1(pp, target, 1, gp);
  smooth_l1(pm, target, 1, gm);
  EXPECT_NEAR(gp[0], -gm[0], 1e-6f);
}

TEST(Loss, MseScalarValueAndGrad) {
  float d = 0.0f;
  const float l = mse_scalar(2.0f, 0.5f, &d);
  EXPECT_NEAR(l, 2.25f, 1e-6f);
  EXPECT_NEAR(d, 3.0f, 1e-6f);
}

TEST(Loss, MseZeroAtTarget) {
  float d = 0.0f;
  EXPECT_EQ(mse_scalar(1.5f, 1.5f, &d), 0.0f);
  EXPECT_EQ(d, 0.0f);
}


// softmax_span evaluates each exponential once and reuses it for the
// quotient.  Its bytes must equal the formula that evaluates it twice, which
// is what every trained model and served detection was computed with.
TEST(Loss, SoftmaxSpanBytesEqualTwoExpFormula) {
  Rng rng(2024);
  std::vector<float> logits, got, want;
  for (int trial = 0; trial < 10000; ++trial) {
    const int n = trial % 4 == 0 ? rng.uniform_int(1, 64) : 31;
    const float mag = rng.uniform(0.0f, 80.0f);
    logits.resize(static_cast<std::size_t>(n));
    for (float& l : logits) l = rng.uniform(-mag, mag);
    got.assign(logits.size(), 0.0f);
    softmax_span(logits.data(), n, got.data());

    float mx = logits[0];
    for (int c = 1; c < n; ++c) mx = std::max(mx, logits[static_cast<std::size_t>(c)]);
    double denom = 0.0;
    for (int c = 0; c < n; ++c)
      denom += std::exp(static_cast<double>(logits[static_cast<std::size_t>(c)] - mx));
    want.assign(logits.size(), 0.0f);
    for (int c = 0; c < n; ++c)
      want[static_cast<std::size_t>(c)] = static_cast<float>(
          std::exp(static_cast<double>(logits[static_cast<std::size_t>(c)] - mx)) / denom);

    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << "trial " << trial << " (n=" << n << ", magnitude " << mag << ")";
  }
}

}  // namespace
}  // namespace ada
