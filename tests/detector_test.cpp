#include "detection/detector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>

#include "data/dataset.h"
#include "detection/trainer.h"

namespace ada {
namespace {

DetectorConfig small_config(int num_classes = 5) {
  DetectorConfig cfg;
  cfg.num_classes = num_classes;
  cfg.c1 = 6;
  cfg.c2 = 10;
  cfg.c3 = 16;
  return cfg;
}

TEST(Detector, ForwardFeatureShape) {
  Rng rng(1);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 64, 80);
  const Tensor& feat = det.forward(img);
  EXPECT_EQ(feat.c(), 16);
  EXPECT_EQ(feat.h(), 8);   // stride 8
  EXPECT_EQ(feat.w(), 10);
}

TEST(Detector, DetectReturnsBoundedOutput) {
  Rng rng(2);
  DetectorConfig cfg = small_config();
  cfg.top_k = 10;
  Detector det(cfg, &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  const DetectionOutput out = det.detect(img);
  EXPECT_LE(static_cast<int>(out.detections.size()), 10);
  EXPECT_EQ(out.image_h, 48);
  EXPECT_EQ(out.image_w, 64);
  for (const Detection& d : out.detections) {
    EXPECT_GE(d.class_id, 0);
    EXPECT_LT(d.class_id, cfg.num_classes);
    EXPECT_GE(d.score, cfg.score_threshold);
    EXPECT_LE(d.score, 1.0f);
    EXPECT_GE(d.box.x1, 0.0f);
    EXPECT_LE(d.box.x2, 63.0f);
    EXPECT_EQ(d.probs.size(), static_cast<std::size_t>(cfg.num_classes + 1));
  }
}

TEST(Detector, DetectionsScoreSorted) {
  Rng rng(3);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  const DetectionOutput out = det.detect(img);
  for (std::size_t i = 1; i < out.detections.size(); ++i)
    EXPECT_GE(out.detections[i - 1].score, out.detections[i].score);
}

TEST(Detector, TrainStepReducesLossOnFixedImage) {
  Rng rng(4);
  Detector det(small_config(3), &rng);
  // One synthetic image with a single centered box.
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  // Paint a bright square where the object is.
  for (int c = 0; c < 3; ++c)
    for (int i = 16; i < 32; ++i)
      for (int j = 24; j < 40; ++j) img.at(0, c, i, j) = 1.0f;
  GtBox g;
  g.x1 = 24; g.y1 = 16; g.x2 = 40; g.y2 = 32; g.class_id = 1;

  Sgd::Options opt_cfg;
  opt_cfg.lr = 1e-3f;
  Sgd opt(det.parameters(), opt_cfg);
  Rng sample_rng(5);
  const float first = det.train_step(img, {g}, &opt, &sample_rng);
  float last = first;
  for (int i = 0; i < 60; ++i) last = det.train_step(img, {g}, &opt, &sample_rng);
  EXPECT_LT(last, first * 0.7f) << "training failed to reduce loss";
}

TEST(Detector, ComputeLossIsFiniteWithoutGt) {
  Rng rng(6);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  Rng sample_rng(7);
  const float loss = det.compute_loss(img, {}, &sample_rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GE(loss, 0.0f);
}

TEST(Detector, ForwardMacsDecreaseWithScale) {
  Rng rng(8);
  Detector det(small_config(), &rng);
  const long long big = det.forward_macs(150, 200);
  const long long small = det.forward_macs(60, 80);
  EXPECT_GT(big, small);
  // Roughly area-proportional: (150*200)/(60*80) = 6.25.
  EXPECT_NEAR(static_cast<double>(big) / static_cast<double>(small), 6.25, 1.5);
}

TEST(Detector, DetectFromFeaturesMatchesDetect) {
  Rng rng(9);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  const DetectionOutput a = det.detect(img);
  const Tensor feat = det.forward(img);  // copy features
  const DetectionOutput b = det.detect_from_features(feat, 48, 64);
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_NEAR(a.detections[i].score, b.detections[i].score, 1e-5f);
    EXPECT_NEAR(a.detections[i].box.x1, b.detections[i].box.x1, 1e-3f);
  }
}

TEST(Detector, ParameterCountIsStable) {
  Rng rng(10);
  Detector det(small_config(), &rng);
  auto params = det.parameters();
  EXPECT_FALSE(params.empty());
  const std::size_t n = param_count(params);
  // conv1 (6*3*9+6) + conv2 (10*6*9+10) + conv3 (16*10*9+16)
  // + cls head (6 anchors * 6 classes... ) -- just check nonzero & stable.
  EXPECT_GT(n, 1000u);
  Rng rng2(10);
  Detector det2(small_config(), &rng2);
  EXPECT_EQ(param_count(det2.parameters()), n);
}

TEST(Detector, ConfigFingerprintDiscriminates) {
  DetectorConfig a = small_config();
  DetectorConfig b = small_config();
  b.c3 = 32;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ------------------------------------------- decode prefilter byte oracle

/// Today's candidate scan without the prefilter: a full two-exp softmax over
/// every anchor.  decode_candidates must return the same bytes.
std::vector<Detection> full_softmax_candidates(
    const Tensor& cls, const Tensor& reg, int n, int num_classes,
    const std::vector<Box>& anchors, float score_threshold, int image_h,
    int image_w) {
  const int kp1 = num_classes + 1;
  const int per_cell = cls.c() / kp1;
  const int fw = cls.w();
  std::vector<Detection> cand;
  std::vector<float> logits(static_cast<std::size_t>(kp1));
  std::vector<float> probs(static_cast<std::size_t>(kp1));
  for (int cell = 0; cell < cls.h() * fw; ++cell) {
    const int i = cell / fw, j = cell % fw;
    for (int a = 0; a < per_cell; ++a) {
      for (int c = 0; c < kp1; ++c)
        logits[static_cast<std::size_t>(c)] = cls.at(n, a * kp1 + c, i, j);
      float mx = logits[0];
      for (int c = 1; c < kp1; ++c) mx = std::max(mx, logits[static_cast<std::size_t>(c)]);
      double denom = 0.0;
      for (int c = 0; c < kp1; ++c)
        denom += std::exp(static_cast<double>(logits[static_cast<std::size_t>(c)] - mx));
      for (int c = 0; c < kp1; ++c)
        probs[static_cast<std::size_t>(c)] = static_cast<float>(
            std::exp(static_cast<double>(logits[static_cast<std::size_t>(c)] - mx)) / denom);
      int best_c = 0;
      float best_p = 0.0f;
      for (int c = 1; c < kp1; ++c)
        if (probs[static_cast<std::size_t>(c)] > best_p) {
          best_p = probs[static_cast<std::size_t>(c)];
          best_c = c;
        }
      if (best_c == 0 || best_p < score_threshold) continue;
      std::array<float, 4> delta;
      for (int d = 0; d < 4; ++d) delta[static_cast<std::size_t>(d)] = reg.at(n, a * 4 + d, i, j);
      const Box& anchor = anchors[static_cast<std::size_t>(cell * per_cell + a)];
      const Box box = clip_box(decode_box(delta, anchor), image_h, image_w);
      if (box.width() < 1.0f || box.height() < 1.0f) continue;
      Detection det;
      det.box = box;
      det.class_id = best_c - 1;
      det.score = best_p;
      det.probs = probs;
      det.delta = delta;
      det.anchor = anchor;
      cand.push_back(std::move(det));
    }
  }
  return cand;
}

bool same_bytes(const Detection& a, const Detection& b) {
  return std::memcmp(&a.box, &b.box, sizeof(Box)) == 0 &&
         a.class_id == b.class_id &&
         std::memcmp(&a.score, &b.score, sizeof(float)) == 0 &&
         a.probs.size() == b.probs.size() &&
         std::memcmp(a.probs.data(), b.probs.data(),
                     a.probs.size() * sizeof(float)) == 0 &&
         std::memcmp(a.delta.data(), b.delta.data(), sizeof(a.delta)) == 0 &&
         std::memcmp(&a.anchor, &b.anchor, sizeof(Box)) == 0;
}

/// Head outputs for two images whose anchors cycle through crafted logit
/// cases around the prefilter's margin ln(1/threshold) + 0.01.
struct CraftedHeads {
  static constexpr int kClasses = 5;
  static constexpr int kFh = 6, kFw = 7;
  AnchorConfig anchor_cfg;
  std::vector<Box> anchors = generate_anchors(anchor_cfg, kFh, kFw);
  Tensor cls{2, anchor_cfg.per_cell() * (kClasses + 1), kFh, kFw};
  Tensor reg{2, anchor_cfg.per_cell() * 4, kFh, kFw};
  int anchors_per_image = 0;

  explicit CraftedHeads(float threshold) {
    const int kp1 = kClasses + 1;
    const float margin = std::log(1.0f / threshold);
    // bg - max_fg relative to ln(1/threshold): both sides of the margin,
    // plus leads small enough that the anchor is a candidate.
    const float offsets[] = {-1e-3f, -1e-6f, 0.0f, 1e-6f, 9e-3f, 1.1e-2f,
                             2e-2f,  -0.5f,  -2e-3f, -1e-2f, -2.0f};
    const int num_offsets = static_cast<int>(sizeof(offsets) / sizeof(offsets[0]));
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(31);
    int k = 0;
    for (int n = 0; n < 2; ++n)
      for (int i = 0; i < kFh; ++i)
        for (int j = 0; j < kFw; ++j)
          for (int a = 0; a < anchor_cfg.per_cell(); ++a, ++k) {
            for (int d = 0; d < 4; ++d)
              reg.at(n, a * 4 + d, i, j) = rng.uniform(-0.4f, 0.4f);
            float* lg[kClasses + 1];
            for (int c = 0; c < kp1; ++c) lg[c] = &cls.at(n, a * kp1 + c, i, j);
            const float bg = rng.uniform(-3.0f, 3.0f);
            *lg[0] = bg;
            const int kase = k % (num_offsets + 4);
            const int top = 1 + k % kClasses;
            if (kase < num_offsets) {
              // One foreground logit sits at the crafted lead; the rest are
              // well below it, so the bound exp(max_fg - bg) is nearly tight.
              const float fg = bg - (margin + offsets[kase]);
              for (int c = 1; c < kp1; ++c)
                *lg[c] = c == top ? fg : fg - rng.uniform(6.0f, 12.0f);
            } else if (kase == num_offsets) {
              // Every foreground probability underflows: best_c stays 0.
              for (int c = 1; c < kp1; ++c) *lg[c] = bg - 200.0f;
            } else if (kase == num_offsets + 1) {
              // Tied foreground maxima, confidently above the background.
              for (int c = 1; c < kp1; ++c) *lg[c] = bg - 4.0f;
              *lg[top] = bg + 1.5f;
              *lg[1 + top % kClasses] = bg + 1.5f;
            } else if (kase == num_offsets + 2) {
              // A NaN logit, in the background or in one foreground class.
              for (int c = 1; c < kp1; ++c) *lg[c] = bg + rng.uniform(-1.0f, 1.0f);
              *lg[(k / 7) % 2 == 0 ? 0 : top] = nan;
            } else {
              for (int c = 1; c < kp1; ++c) *lg[c] = rng.uniform(-4.0f, 4.0f);
            }
          }
    anchors_per_image = k / 2;
  }
};

TEST(DecodeCandidates, PrefilterMatchesFullSoftmaxByteForByte) {
  for (float threshold : {0.05f, 1e-3f, 0.3f}) {
    const CraftedHeads heads(threshold);
    const int image_h = CraftedHeads::kFh * 8, image_w = CraftedHeads::kFw * 8;
    std::size_t total = 0;
    for (int n = 0; n < 2; ++n) {
      SCOPED_TRACE("threshold " + std::to_string(threshold) + ", image " +
                   std::to_string(n));
      const std::vector<Detection> want = full_softmax_candidates(
          heads.cls, heads.reg, n, CraftedHeads::kClasses, heads.anchors,
          threshold, image_h, image_w);
      const std::vector<Detection> got = decode_candidates(
          heads.cls, heads.reg, n, CraftedHeads::kClasses, heads.anchors,
          threshold, image_h, image_w);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < got.size(); ++d)
        EXPECT_TRUE(same_bytes(got[d], want[d])) << "candidate " << d;
      total += want.size();
    }
    // Non-vacuous: candidates exist, and many anchors are not candidates.
    EXPECT_GT(total, 10u);
    EXPECT_LT(total, static_cast<std::size_t>(heads.anchors_per_image));
  }
}

TEST(DecodeCandidates, UnderflowTiesAndNanMatchOracle) {
  // One anchor per case, checked on its own so a failure names the case.
  AnchorConfig acfg;
  acfg.sizes = {16.0f};
  acfg.aspects = {1.0f};
  const int k = 4, kp1 = k + 1;
  const std::vector<Box> anchors = generate_anchors(acfg, 1, 1);
  Tensor reg(1, 4, 1, 1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    const char* name;
    std::vector<float> logits;
    std::size_t expect;
  };
  const Case cases[] = {
      {"all foreground 200 below", {5.0f, -195.0f, -195.0f, -195.0f, -195.0f}, 0},
      {"tied foreground maxima", {0.0f, 3.0f, 1.0f, 3.0f, -1.0f}, 1},
      {"NaN background", {nan, 3.0f, 1.0f, 2.0f, -1.0f}, 0},
      {"NaN foreground", {0.0f, 3.0f, nan, 2.0f, -1.0f}, 0},
      {"NaN foreground, background far ahead", {50.0f, 3.0f, nan, 2.0f, -1.0f}, 0},
  };
  for (const Case& c : cases) {
    Tensor cls(1, kp1, 1, 1);
    for (int i = 0; i < kp1; ++i) cls[static_cast<std::size_t>(i)] = c.logits[static_cast<std::size_t>(i)];
    const std::vector<Detection> want =
        full_softmax_candidates(cls, reg, 0, k, anchors, 0.05f, 16, 16);
    const std::vector<Detection> got =
        decode_candidates(cls, reg, 0, k, anchors, 0.05f, 16, 16);
    ASSERT_EQ(want.size(), c.expect) << c.name;
    ASSERT_EQ(got.size(), want.size()) << c.name;
    for (std::size_t d = 0; d < got.size(); ++d)
      EXPECT_TRUE(same_bytes(got[d], want[d])) << c.name;
  }
  // Ties resolve to the first class, as the strict > scan always did.
  Tensor cls(1, kp1, 1, 1);
  for (int i = 0; i < kp1; ++i) cls[static_cast<std::size_t>(i)] = cases[1].logits[static_cast<std::size_t>(i)];
  EXPECT_EQ(decode_candidates(cls, reg, 0, k, anchors, 0.05f, 16, 16)[0].class_id, 0);
}

TEST(Trainer, TrainOrLoadUsesCache) {
  const Dataset ds = Dataset::synth_vid(1, 1, 123);
  DetectorConfig dcfg;
  dcfg.num_classes = ds.catalog().num_classes();
  dcfg.c1 = 4; dcfg.c2 = 6; dcfg.c3 = 8;
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.train_scales = {240};

  const std::string cache =
      (std::filesystem::temp_directory_path() / "ada_cache_test").string();
  std::filesystem::remove_all(cache);
  auto det1 = train_or_load_detector(ds, dcfg, tcfg, cache);
  auto det2 = train_or_load_detector(ds, dcfg, tcfg, cache);
  // Same weights after cache round trip.
  auto p1 = det1->parameters();
  auto p2 = det2->parameters();
  const auto f1 = flatten_params(p1);
  const auto f2 = flatten_params(p2);
  EXPECT_EQ(f1, f2);
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace ada
