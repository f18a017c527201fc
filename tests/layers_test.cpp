#include "nn/layers.h"

#include <gtest/gtest.h>

#include "nn/sgd.h"
#include "tensor/loss.h"

namespace ada {
namespace {

TEST(Layers, Conv2dLayerShapes) {
  Rng rng(1);
  Conv2dLayer conv(3, 8, 3, 1, 1);
  conv.init_he(&rng);
  Tensor x = Tensor::chw(3, 10, 12);
  Tensor y;
  conv.forward(x, &y);
  EXPECT_EQ(y.c(), 8);
  EXPECT_EQ(y.h(), 10);
  EXPECT_EQ(y.w(), 12);
}

TEST(Layers, HeInitHasSensibleScale) {
  Rng rng(2);
  Conv2dLayer conv(16, 16, 3, 1, 1);
  conv.init_he(&rng);
  // Variance should be near 2/fan_in = 2/144.
  double sum2 = 0;
  const Tensor& w = conv.weight().value;
  for (std::size_t i = 0; i < w.size(); ++i) sum2 += static_cast<double>(w[i]) * w[i];
  const double var = sum2 / static_cast<double>(w.size());
  EXPECT_NEAR(var, 2.0 / 144.0, 0.5 * 2.0 / 144.0);
}

TEST(Layers, SequentialForwardBackwardRuns) {
  Rng rng(3);
  Sequential net;
  auto* c1 = net.emplace<Conv2dLayer>(1, 4, 3, 1, 1);
  net.emplace<ReluLayer>();
  net.emplace<MaxPool2Layer>();
  auto* c2 = net.emplace<Conv2dLayer>(4, 2, 3, 1, 1);
  c1->init_he(&rng);
  c2->init_he(&rng);

  Tensor x = Tensor::chw(1, 8, 8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  Tensor y;
  net.forward(x, &y);
  EXPECT_EQ(y.c(), 2);
  EXPECT_EQ(y.h(), 4);

  Tensor dy(y.n(), y.c(), y.h(), y.w());
  dy.fill(1.0f);
  Tensor dx;
  net.backward(dy, &dx);
  EXPECT_TRUE(dx.same_shape(x));
  // Some gradient must reach the input.
  EXPECT_GT(dx.abs_max(), 0.0f);
}

TEST(Layers, SequentialGradCheckThroughStack) {
  // Numerical check through conv+relu+gap with a scalar loss.
  Rng rng(5);
  Sequential net;
  auto* c1 = net.emplace<Conv2dLayer>(2, 3, 3, 1, 1);
  net.emplace<ReluLayer>();
  net.emplace<GlobalAvgPoolLayer>();
  c1->init_he(&rng);

  Tensor x = Tensor::chw(2, 5, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal() + 0.3f;

  auto loss_of = [&](Sequential& n, const Tensor& xx) {
    Tensor yy;
    n.forward(xx, &yy);
    double s = 0;
    for (std::size_t i = 0; i < yy.size(); ++i) s += yy[i];
    return s;
  };

  Tensor y;
  net.forward(x, &y);
  Tensor dy(y.n(), y.c(), y.h(), y.w());
  dy.fill(1.0f);
  std::vector<Param*> params;
  net.collect_params(&params);
  for (Param* p : params) p->zero_grad();
  Tensor dx;
  net.backward(dy, &dx);

  const float eps = 1e-3f;
  Param* wparam = params[0];
  for (std::size_t i = 0; i < wparam->value.size(); i += 11) {
    const float orig = wparam->value[i];
    wparam->value[i] = orig + eps;
    const double lp = loss_of(net, x);
    wparam->value[i] = orig - eps;
    const double lm = loss_of(net, x);
    wparam->value[i] = orig;
    EXPECT_NEAR(wparam->grad[i], (lp - lm) / (2 * eps), 2e-2);
  }
}

TEST(Layers, LinearLayerForwardBackward) {
  Rng rng(7);
  LinearLayer fc(4, 2);
  fc.init_he(&rng);
  Tensor x(1, 4, 1, 1);
  for (int i = 0; i < 4; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
  Tensor y;
  fc.forward(x, &y);
  EXPECT_EQ(y.c(), 2);

  Tensor dy(1, 2, 1, 1);
  dy.fill(1.0f);
  Tensor dx(1, 4, 1, 1);
  fc.backward(dy, &dx);
  // dx = W^T dy.
  for (int i = 0; i < 4; ++i) {
    const float expect =
        fc.weight().value.at(0, i, 0, 0) + fc.weight().value.at(1, i, 0, 0);
    EXPECT_NEAR(dx.at(0, i, 0, 0), expect, 1e-5f);
  }
}

TEST(Layers, ParamFlattenRoundTrip) {
  Rng rng(9);
  Sequential net;
  auto* c = net.emplace<Conv2dLayer>(1, 2, 3, 1, 1);
  c->init_he(&rng);
  std::vector<Param*> params;
  net.collect_params(&params);
  std::vector<float> flat = flatten_params(params);
  EXPECT_EQ(flat.size(), param_count(params));

  // Perturb then restore.
  for (Param* p : params) p->value.fill(0.0f);
  ASSERT_TRUE(unflatten_params(flat, params));
  std::vector<float> again = flatten_params(params);
  EXPECT_EQ(again, flat);
}

TEST(Layers, UnflattenRejectsWrongSize) {
  Rng rng(10);
  Sequential net;
  net.emplace<Conv2dLayer>(1, 1, 1, 1, 0);
  std::vector<Param*> params;
  net.collect_params(&params);
  EXPECT_FALSE(unflatten_params({1.0f}, params));
}

// A planned pool records no argmax, so a backward after it must not route
// gradients through the one an older eager forward left.
TEST(MaxPoolLayerDeathTest, BackwardAfterPlannedForwardAborts) {
  MaxPool2Layer pool;
  Tensor x = Tensor::chw(2, 4, 4);
  Tensor y;
  pool.forward(x, &y);  // eager, 4x4: records a 2x2 argmax
  PlanShape shape{1, 2, 6, 6};
  ExecutionPlan plan;
  pool.plan_forward(&shape, &plan);
  PlanCursor pc(&plan);
  const Tensor x6 = Tensor::chw(2, 6, 6);
  Tensor y6;
  pool.forward_planned(x6, &y6, &pc);
  Tensor dy(1, 2, 3, 3);
  Tensor dx;
  EXPECT_DEATH(pool.backward(dy, &dx),
               "MaxPool2Layer: backward requires an eager forward");
}

TEST(MaxPoolLayerDeathTest, BackwardRejectsMismatchedGradient) {
  MaxPool2Layer pool;
  Tensor x = Tensor::chw(2, 4, 4);
  Tensor y;
  pool.forward(x, &y);
  Tensor dy(1, 2, 3, 3);
  Tensor dx;
  EXPECT_DEATH(pool.backward(dy, &dx),
               "MaxPool2Layer: backward got dy \\[1,2,3,3\\] but the forward "
               "output was \\[1,2,2,2\\]");
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via the Param/Sgd machinery.
  Param p;
  p.value = Tensor::vec(1);
  p.grad = Tensor::vec(1);
  p.value[0] = 0.0f;
  Sgd::Options opt;
  opt.lr = 0.1f;
  opt.momentum = 0.0f;
  opt.weight_decay = 0.0f;
  Sgd sgd({&p}, opt);
  for (int i = 0; i < 200; ++i) {
    sgd.zero_grad();
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    sgd.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-3f);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  auto run = [](float momentum) {
    Param p;
    p.value = Tensor::vec(1);
    p.grad = Tensor::vec(1);
    p.value[0] = 10.0f;
    Sgd::Options opt;
    opt.lr = 0.01f;
    opt.momentum = momentum;
    opt.weight_decay = 0.0f;
    Sgd sgd({&p}, opt);
    for (int i = 0; i < 50; ++i) {
      sgd.zero_grad();
      p.grad[0] = 2.0f * p.value[0];
      sgd.step();
    }
    return std::abs(p.value[0]);
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(Sgd, GradClipBoundsUpdate) {
  Param p;
  p.value = Tensor::vec(1);
  p.grad = Tensor::vec(1);
  Sgd::Options opt;
  opt.lr = 1.0f;
  opt.momentum = 0.0f;
  opt.weight_decay = 0.0f;
  opt.grad_clip = 1.0f;
  Sgd sgd({&p}, opt);
  p.grad[0] = 1000.0f;
  sgd.step();
  EXPECT_NEAR(p.value[0], -1.0f, 1e-5f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Param p;
  p.value = Tensor::vec(1);
  p.grad = Tensor::vec(1);
  p.value[0] = 1.0f;
  Sgd::Options opt;
  opt.lr = 0.1f;
  opt.momentum = 0.0f;
  opt.weight_decay = 0.5f;
  Sgd sgd({&p}, opt);
  sgd.zero_grad();
  sgd.step();  // grad 0 but decay pulls toward 0
  EXPECT_LT(p.value[0], 1.0f);
}

}  // namespace
}  // namespace ada
