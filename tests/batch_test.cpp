// Batched-vs-single bit-equivalence for the N-dimension inference stack:
// conv2d_forward, linear_forward, Detector::detect_batch and
// ScaleRegressor::predict_batch must produce, for every image of a batch,
// exactly the bits the single-image call produces.  This is the property
// cross-stream batching's determinism rests on (MultiStreamRunner::
// run_batched) — batch composition must never leak into results.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "adascale/scale_regressor.h"
#include "detection/detector.h"
#include "runtime/scratch.h"
#include "tensor/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/linear.h"
#include "util/rng.h"

namespace ada {
namespace {

Tensor random_tensor(int n, int c, int h, int w, Rng* rng) {
  Tensor t(n, c, h, w);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng->normal(0.0f, 1.0f);
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* label) {
  ASSERT_TRUE(a.same_shape(b)) << label << ": " << a.shape_str() << " vs "
                               << b.shape_str();
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << label << " differs at flat index " << i;
}

class BatchEquivalenceTest : public ::testing::TestWithParam<GemmBackend> {
 protected:
  void SetUp() override {
    saved_ = gemm_backend();
    set_gemm_backend(GetParam());
  }
  void TearDown() override { set_gemm_backend(saved_); }

 private:
  GemmBackend saved_;
};

TEST_P(BatchEquivalenceTest, ConvBatchMatchesSingleImageBitwise) {
  Rng rng(42);
  // Odd spatial sizes, stride/dilation variants, bias on, fused ReLU on and
  // off — the shapes the backbone and heads actually exercise.
  struct Case { ConvSpec spec; int h, w; bool fuse; };
  const std::vector<Case> cases = {
      {ConvSpec{3, 8, 3, 1, 1, 1}, 17, 23, true},
      {ConvSpec{5, 7, 3, 2, 1, 1}, 19, 13, false},
      {ConvSpec{4, 6, 3, 1, 4, 4}, 21, 15, true},  // conv4-style dilation
      {ConvSpec{6, 9, 1, 1, 0, 1}, 11, 27, false}, // head-style 1x1
  };
  for (const Case& cs : cases) {
    Tensor w = random_tensor(cs.spec.out_channels, cs.spec.in_channels,
                             cs.spec.kernel, cs.spec.kernel, &rng);
    Tensor b = random_tensor(1, cs.spec.out_channels, 1, 1, &rng);
    for (int batch = 1; batch <= 4; ++batch) {
      Tensor x = random_tensor(batch, cs.spec.in_channels, cs.h, cs.w, &rng);
      Tensor y_batch;
      conv2d_forward(cs.spec, x, w, b, &y_batch, cs.fuse);
      ASSERT_EQ(y_batch.n(), batch);
      for (int n = 0; n < batch; ++n) {
        Tensor y_single;
        conv2d_forward(cs.spec, x.image(n), w, b, &y_single, cs.fuse);
        expect_bitwise_equal(y_batch.image(n), y_single, "conv2d output");
      }
    }
  }
}

TEST_P(BatchEquivalenceTest, LinearBatchMatchesSingleRowBitwise) {
  Rng rng(7);
  const int in = 37, out = 11;
  Tensor w = random_tensor(out, in, 1, 1, &rng);
  Tensor b = random_tensor(1, out, 1, 1, &rng);
  for (int batch = 1; batch <= 4; ++batch) {
    Tensor x = random_tensor(batch, in, 1, 1, &rng);
    Tensor y_batch;
    linear_forward(x, w, b, &y_batch);
    for (int n = 0; n < batch; ++n) {
      Tensor y_single;
      linear_forward(x.image(n), w, b, &y_single);
      expect_bitwise_equal(y_batch.image(n), y_single, "linear output");
    }
  }
}

TEST_P(BatchEquivalenceTest, DetectorBatchMatchesDetectBitwise) {
  DetectorConfig cfg;
  cfg.num_classes = 5;
  Rng rng(3);
  Detector det(cfg, &rng);
  Rng data_rng(11);
  // Odd spatial size so pooling floors and pad-clipped im2col edges are in
  // play, as they are for real rendered frames.
  const int h = 37, w = 51;
  for (int batch = 1; batch <= 3; ++batch) {
    Tensor images = random_tensor(batch, 3, h, w, &data_rng);
    std::vector<DetectionOutput> batched = det.detect_batch(images);
    Tensor batched_features = det.features();
    ASSERT_EQ(static_cast<int>(batched.size()), batch);
    for (int n = 0; n < batch; ++n) {
      DetectionOutput single = det.detect(images.image(n));
      expect_bitwise_equal(batched_features.image(n), det.features(),
                           "deep features");
      ASSERT_EQ(batched[static_cast<std::size_t>(n)].detections.size(),
                single.detections.size());
      for (std::size_t d = 0; d < single.detections.size(); ++d) {
        const Detection& a =
            batched[static_cast<std::size_t>(n)].detections[d];
        const Detection& b = single.detections[d];
        EXPECT_EQ(a.class_id, b.class_id);
        EXPECT_EQ(a.score, b.score);
        EXPECT_EQ(a.box.x1, b.box.x1);
        EXPECT_EQ(a.box.y1, b.box.y1);
        EXPECT_EQ(a.box.x2, b.box.x2);
        EXPECT_EQ(a.box.y2, b.box.y2);
        ASSERT_EQ(a.probs.size(), b.probs.size());
        for (std::size_t p = 0; p < a.probs.size(); ++p)
          EXPECT_EQ(a.probs[p], b.probs[p]);
      }
    }
  }
}

TEST_P(BatchEquivalenceTest, RegressorPredictBatchMatchesPredictBitwise) {
  RegressorConfig cfg;
  cfg.in_channels = 24;
  Rng rng(9);
  ScaleRegressor reg(cfg, &rng);
  Rng data_rng(13);
  for (int batch = 1; batch <= 4; ++batch) {
    Tensor features = random_tensor(batch, cfg.in_channels, 9, 13, &data_rng);
    const std::vector<float> ts = reg.predict_batch(features);
    ASSERT_EQ(static_cast<int>(ts.size()), batch);
    for (int n = 0; n < batch; ++n)
      EXPECT_EQ(ts[static_cast<std::size_t>(n)],
                reg.predict(features.image(n)))
          << "regressor output differs for image " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BothBackends, BatchEquivalenceTest,
                         ::testing::Values(GemmBackend::kPacked,
                                           GemmBackend::kReference),
                         [](const auto& tpi) {
                           return tpi.param == GemmBackend::kPacked
                                      ? "packed"
                                      : "reference";
                         });

// Concurrent batched conv calls: each thread's scratch arena must size
// itself for the batch (cols + the oc-major GEMM output buffer) without
// aliasing any other thread's workspace, and results must match the serial
// single-thread run bit for bit.
TEST(BatchScratchTest, ConcurrentBatchedConvsMatchSerial) {
  const ConvSpec spec{3, 12, 3, 1, 1, 1};
  Rng rng(21);
  Tensor w = random_tensor(spec.out_channels, spec.in_channels, 3, 3, &rng);
  Tensor b = random_tensor(1, spec.out_channels, 1, 1, &rng);

  // Different batch size and spatial shape per worker so the arena demand
  // differs per thread.
  struct Work { int batch, h, wd; Tensor x, serial, concurrent; };
  std::vector<Work> work;
  for (int i = 0; i < 4; ++i) {
    Work wk;
    wk.batch = 1 + i;
    wk.h = 15 + 2 * i;
    wk.wd = 33 - 4 * i;
    wk.x = random_tensor(wk.batch, spec.in_channels, wk.h, wk.wd, &rng);
    work.push_back(std::move(wk));
  }
  for (Work& wk : work) conv2d_forward(spec, wk.x, w, b, &wk.serial, true);

  std::vector<std::thread> threads;
  for (Work& wk : work)
    threads.emplace_back([&spec, &w, &b, &wk] {
      // Repeat so steady-state reuse (not just first-call growth) is hit.
      for (int r = 0; r < 3; ++r)
        conv2d_forward(spec, wk.x, w, b, &wk.concurrent, true);
    });
  for (std::thread& t : threads) t.join();

  for (Work& wk : work) {
    ASSERT_TRUE(wk.serial.same_shape(wk.concurrent));
    for (std::size_t i = 0; i < wk.serial.size(); ++i)
      ASSERT_EQ(wk.serial[i], wk.concurrent[i]);
  }
}

}  // namespace
}  // namespace ada
