// End-to-end integration: train a small detector + regressor on a tiny
// SynthVID split and verify the whole AdaScale methodology holds together:
// the detector learns to detect, the optimal-scale metric produces in-range
// labels, the regressor trains, and Algorithm 1 runs with sane evaluation
// output through the experiment harness.
//
// Kept deliberately small (a few seconds); the statistically meaningful
// numbers come from the bench binaries.
#include <gtest/gtest.h>

#include <filesystem>

#include "experiments/harness.h"

namespace ada {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  // One harness shared by all integration tests (training happens once).
  static Harness* harness() {
    static Harness* h = [] {
      HarnessSizes sizes;
      sizes.train_snippets = 8;
      sizes.val_snippets = 3;
      sizes.seed = 555;
      // Shared disk cache: the first integration test in the suite trains
      // (about two minutes), the rest load instantly.  ctest runs these
      // serially, so there is no cache race.
      return new Harness(
          Dataset::synth_vid(sizes.train_snippets, sizes.val_snippets,
                             sizes.seed),
          "/tmp/ada_integration_cache");
    }();
    return h;
  }
};

TEST_F(IntegrationFixture, DetectorLearnsToDetect) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun run = h->evaluate("MS/SS", h->run_fixed(det, 600));
  // An untrained detector gets ~0 mAP; a trained one must clear a floor.
  EXPECT_GT(run.eval.map, 0.15f) << "detector failed to learn";
  EXPECT_GT(run.mean_ms, 0.0);
}

TEST_F(IntegrationFixture, OptimalScaleLabelsAreInRange) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  const Renderer renderer = h->dataset().make_renderer();
  auto frames = h->dataset().train_frames();
  frames.resize(6);
  const auto labels = generate_optimal_scale_labels(
      det, renderer, h->dataset().scale_policy(), frames,
      ScaleSet::reg_default(), OptimalScaleConfig{});
  ASSERT_EQ(labels.size(), 6u);
  for (int m : labels) EXPECT_TRUE(ScaleSet::reg_default().contains(m));
}

TEST_F(IntegrationFixture, MetricIsDeterministic) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  const Renderer renderer = h->dataset().make_renderer();
  const Scene& scene = h->dataset().val_snippets()[0].frames[0];
  const auto m1 =
      compute_scale_metric(det, renderer, h->dataset().scale_policy(), scene,
                           ScaleSet::reg_default(), OptimalScaleConfig{});
  const auto m2 =
      compute_scale_metric(det, renderer, h->dataset().scale_policy(), scene,
                           ScaleSet::reg_default(), OptimalScaleConfig{});
  EXPECT_EQ(m1.optimal_scale, m2.optimal_scale);
  EXPECT_EQ(m1.n_fg, m2.n_fg);
}

TEST_F(IntegrationFixture, AdaScaleRunsAndStaysInRange) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  ScaleRegressor* reg = h->regressor(ScaleSet::train_default(),
                                     h->default_regressor_config());
  MethodRun run = h->evaluate("MS/AdaScale",
                              h->run_adascale(det, reg, ScaleSet::reg_default()));
  EXPECT_FALSE(run.used_scales.empty());
  for (int s : run.used_scales) {
    EXPECT_GE(s, 128);
    EXPECT_LE(s, 600);
  }
  EXPECT_GT(run.eval.map, 0.05f);
}

TEST_F(IntegrationFixture, MultiScaleSlowestRandomBetween) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun ss = h->evaluate("SS", h->run_fixed(det, 600));
  MethodRun ms = h->evaluate("MS", h->run_multiscale(det, ScaleSet::reg_default()));
  MethodRun rnd = h->evaluate("Rnd", h->run_random(det, ScaleSet::reg_default(), 1));
  // Multi-shot testing runs every scale: strictly slower than single-scale.
  EXPECT_GT(ms.mean_ms, ss.mean_ms * 1.2);
  // Random scaling is cheaper than always-600.
  EXPECT_LT(rnd.mean_ms, ss.mean_ms * 1.05);
}

TEST_F(IntegrationFixture, DffFasterThanFullPerFrame) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  ScaleRegressor* reg = h->regressor(ScaleSet::train_default(),
                                     h->default_regressor_config());
  DffServingConfig cfg;
  cfg.policy = DffServingConfig::Keyframe::kFixedInterval;
  cfg.key_interval = 5;
  cfg.adascale = false;
  MethodRun dff = h->evaluate("DFF", h->run_dff(det, reg, cfg,
                                                ScaleSet::reg_default()));
  MethodRun full = h->evaluate("full", h->run_fixed(det, 600));
  EXPECT_LT(dff.mean_ms, full.mean_ms);
}

TEST_F(IntegrationFixture, SeqNmsDoesNotCrashAndKeepsMapReasonable) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  auto runs = h->run_fixed(det, 600);
  MethodRun base = h->evaluate("base", runs);
  SeqNmsConfig cfg;
  MethodRun seq = h->evaluate("seqnms", h->run_fixed(det, 600), &cfg);
  // Seq-NMS may help or mildly hurt on tiny data, but must stay in the same
  // ballpark and not destroy the evaluation.
  EXPECT_GT(seq.eval.map, base.eval.map * 0.5f);
}

TEST_F(IntegrationFixture, EvaluateReportsScaleHistogramAndMacs) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun run = h->evaluate("SS", h->run_fixed(det, 240));
  for (int s : run.used_scales) EXPECT_EQ(s, 240);
  EXPECT_GT(run.mean_macs, 0.0);
  EXPECT_GT(run.fps, 0.0);
}


TEST_F(IntegrationFixture, OracleRunnerUsesPerFrameOptimalScales) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun oracle = h->evaluate("oracle", h->run_oracle(det, ScaleSet::reg_default()));
  ASSERT_FALSE(oracle.used_scales.empty());
  for (int s : oracle.used_scales)
    EXPECT_TRUE(ScaleSet::reg_default().contains(s));
  // The oracle picks per-frame argmin scales, so it must not be slower than
  // always running 600 (it can only choose 600 or cheaper).
  MethodRun fixed = h->evaluate("fixed", h->run_fixed(det, 600));
  EXPECT_LE(oracle.mean_ms, fixed.mean_ms * 1.1);
}

TEST_F(IntegrationFixture, SameFrameVariantCostsTwoDetections) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  ScaleRegressor* reg = h->regressor(ScaleSet::train_default(),
                                     h->default_regressor_config());
  MethodRun lagged = h->evaluate(
      "lagged", h->run_adascale(det, reg, ScaleSet::reg_default()));
  MethodRun same = h->evaluate(
      "same", h->run_adascale_same_frame(det, reg, ScaleSet::reg_default()));
  // The lag-free variant re-detects every frame: clearly slower.
  EXPECT_GT(same.mean_ms, lagged.mean_ms * 1.2);
  for (int s : same.used_scales) {
    EXPECT_GE(s, 128);
    EXPECT_LE(s, 600);
  }
}

TEST_F(IntegrationFixture, CorruptCacheFallsBackToTraining) {
  // A truncated cache file must be detected and retrained, not crash or
  // silently load garbage.
  const std::string dir = "/tmp/ada_corrupt_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Dataset ds = Dataset::synth_vid(1, 1, 42);
  DetectorConfig dcfg;
  dcfg.num_classes = ds.catalog().num_classes();
  TrainConfig tcfg;
  tcfg.epochs = 1;
  auto first = train_or_load_detector(ds, dcfg, tcfg, dir);
  ASSERT_NE(first, nullptr);

  // Truncate every cache file in the directory.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    std::filesystem::resize_file(entry.path(), 8);

  auto second = train_or_load_detector(ds, dcfg, tcfg, dir);
  ASSERT_NE(second, nullptr);
  // Retrained deterministically: weights match the first training run.
  auto pa = first->parameters();
  auto pb = second->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t k = 0; k < pa[i]->value.size(); ++k)
      ASSERT_EQ(pa[i]->value[k], pb[i]->value[k]);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ada
