// Per-model execution policies: resolution order (explicit policy > env
// default), per-layer kernel selection that ignores the process global when
// pinned, clone inheritance, the mixed-precision serving config (int8
// detector + fp32 regressor), and — the race the refactor kills —
// concurrent MultiStreamRunner streams serving *different* policies with
// outputs bit-identical to their serial single-policy runs.
#include "runtime/exec_policy.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "runtime/multi_stream.h"

namespace ada {
namespace {

/// Restores the process-wide default backend on scope exit.
struct BackendGuard {
  GemmBackend saved = gemm_backend();
  ~BackendGuard() { set_gemm_backend(saved); }
};

TEST(ExecPolicy, UnpinnedFollowsEnvDefaultPinnedIgnoresIt) {
  BackendGuard guard;
  const ExecutionPolicy unpinned;
  EXPECT_FALSE(unpinned.pinned());
  set_gemm_backend(GemmBackend::kReference);
  EXPECT_EQ(unpinned.resolve(), GemmBackend::kReference);
  set_gemm_backend(GemmBackend::kPacked);
  EXPECT_EQ(unpinned.resolve(), GemmBackend::kPacked);

  const ExecutionPolicy pinned = ExecutionPolicy::int8();
  EXPECT_TRUE(pinned.pinned());
  set_gemm_backend(GemmBackend::kReference);
  EXPECT_EQ(pinned.resolve(), GemmBackend::kInt8);
  EXPECT_STREQ(pinned.name(), "int8");
  EXPECT_STREQ(ExecutionPolicy::fp32().name(), "packed");
  EXPECT_STREQ(ExecutionPolicy::reference().name(), "reference");
}

TEST(ExecPolicy, SetGemmBackendRejectsDefaultMarker) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kReference);
  set_gemm_backend(GemmBackend::kDefault);  // must be a no-op
  EXPECT_EQ(gemm_backend(), GemmBackend::kReference);
}

class ExecPolicyModelTest : public ::testing::Test {
 protected:
  ExecPolicyModelTest()
      : dataset_(Dataset::synth_vid(1, 2, 77)),
        renderer_(dataset_.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset_.catalog().num_classes();
    Rng rng(5);
    detector_ = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = detector_->feature_channels();
    Rng rng2(6);
    regressor_ = std::make_unique<ScaleRegressor>(rcfg, &rng2);
  }

  Tensor render(int scale) const {
    return renderer_.render_at_scale(dataset_.val_snippets()[0].frames[0],
                                     scale, dataset_.scale_policy());
  }

  void quantize_models(const Tensor& img) {
    detector_->quantize({img});
    std::vector<Tensor> feats;
    feats.push_back(detector_->forward(img));
    regressor_->quantize(feats);
    ASSERT_TRUE(detector_->quantized());
    ASSERT_TRUE(regressor_->quantized());
  }

  static void expect_same_bits(const Tensor& a, const Tensor& b) {
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

TEST_F(ExecPolicyModelTest, PinnedDetectorPolicyIgnoresGlobalFlips) {
  BackendGuard guard;
  const Tensor img = render(240);

  set_gemm_backend(GemmBackend::kReference);
  Tensor ref_feats = detector_->forward(img);  // unpinned → reference
  set_gemm_backend(GemmBackend::kPacked);
  Tensor packed_feats = detector_->forward(img);  // unpinned → packed

  // Pinned reference under a packed global must reproduce the reference
  // bits; pinned fp32 under a reference global must reproduce packed.
  detector_->set_execution_policy(ExecutionPolicy::reference());
  set_gemm_backend(GemmBackend::kPacked);
  expect_same_bits(detector_->forward(img), ref_feats);

  detector_->set_execution_policy(ExecutionPolicy::fp32());
  set_gemm_backend(GemmBackend::kReference);
  expect_same_bits(detector_->forward(img), packed_feats);
}

TEST_F(ExecPolicyModelTest, MixedPrecisionIsPerModelState) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  quantize_models(img);

  // Reference outputs: all-fp32 and all-int8 (via pinned policies, global
  // untouched below).
  detector_->set_execution_policy(ExecutionPolicy::fp32());
  regressor_->set_execution_policy(ExecutionPolicy::fp32());
  const Tensor fp32_feats = detector_->forward(img);
  const float fp32_t = regressor_->predict(fp32_feats);

  detector_->set_execution_policy(ExecutionPolicy::int8());
  regressor_->set_execution_policy(ExecutionPolicy::int8());
  const Tensor int8_feats = detector_->forward(img);
  const float int8_t_ = regressor_->predict(int8_feats);

  // The quantized backbone must actually change bits, or this test is
  // vacuous.
  ASSERT_TRUE(fp32_feats.same_shape(int8_feats));
  EXPECT_NE(0, std::memcmp(fp32_feats.data(), int8_feats.data(),
                           fp32_feats.size() * sizeof(float)));

  // Mixed precision: int8 detector + fp32 regressor.  The detector serves
  // the int8 bits while the *quantized* regressor still runs fp32 on the
  // same features — policy gates the kernel, not quantization state.
  detector_->set_execution_policy(ExecutionPolicy::int8());
  regressor_->set_execution_policy(ExecutionPolicy::fp32());
  expect_same_bits(detector_->forward(img), int8_feats);
  const float mixed_t = regressor_->predict(int8_feats);
  EXPECT_NE(mixed_t, int8_t_);  // fp32 head on int8 features
  (void)fp32_t;

  // And a global flip cannot perturb any of it: both models are pinned.
  set_gemm_backend(GemmBackend::kReference);
  expect_same_bits(detector_->forward(img), int8_feats);
  EXPECT_EQ(regressor_->predict(int8_feats), mixed_t);
}

TEST_F(ExecPolicyModelTest, ClonesInheritPolicyAndBits) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  quantize_models(img);
  detector_->set_execution_policy(ExecutionPolicy::int8());
  regressor_->set_execution_policy(ExecutionPolicy::fp32());

  auto det_clone = clone_detector(detector_.get());
  auto reg_clone = clone_regressor(regressor_.get());
  EXPECT_EQ(det_clone->execution_policy().backend, GemmBackend::kInt8);
  EXPECT_EQ(reg_clone->execution_policy().backend, GemmBackend::kPacked);

  const Tensor feats = detector_->forward(img);
  expect_same_bits(det_clone->forward(img), feats);
  EXPECT_EQ(reg_clone->predict(feats), regressor_->predict(feats));
}

TEST_F(ExecPolicyModelTest, ConcurrentStreamsWithDifferentPoliciesMatchSerial) {
  // The latent race this refactor fixes: precision selection used to be a
  // process-global mutated by set_gemm_backend, so one stream flipping
  // backends corrupted its neighbors.  Policies are per-model: an int8
  // stream and an fp32 stream running concurrently must each produce
  // exactly the bits of their own serial single-policy run.
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  quantize_models(render(600));

  std::vector<const Snippet*> jobs;
  for (const Snippet& s : dataset_.val_snippets()) jobs.push_back(&s);
  ASSERT_GE(jobs.size(), 2u);

  MultiStreamRunner mixed(detector_.get(), regressor_.get(), &renderer_,
                          dataset_.scale_policy(), ScaleSet::reg_default(), 2);
  mixed.set_stream_policy(0, ExecutionPolicy::int8(),
                          ExecutionPolicy::int8());
  mixed.set_stream_policy(1, ExecutionPolicy::fp32(),
                          ExecutionPolicy::fp32());
  const MultiStreamResult par = mixed.run(jobs);

  // Serial single-policy baselines: a 1-stream runner per policy over that
  // stream's round-robin job share (stream s takes jobs s, s+2, ...).
  const ExecutionPolicy policies[2] = {ExecutionPolicy::int8(),
                                       ExecutionPolicy::fp32()};
  for (int s = 0; s < 2; ++s) {
    std::vector<const Snippet*> share;
    for (std::size_t j = static_cast<std::size_t>(s); j < jobs.size(); j += 2)
      share.push_back(jobs[j]);
    MultiStreamRunner single(detector_.get(), regressor_.get(), &renderer_,
                             dataset_.scale_policy(), ScaleSet::reg_default(),
                             1);
    single.set_stream_policy(0, policies[s], policies[s]);
    const MultiStreamResult ref = single.run_serial(share);

    const StreamOutput& a = par.streams[static_cast<std::size_t>(s)];
    const StreamOutput& b = ref.streams[0];
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
      EXPECT_EQ(a.frames[f].scale_used, b.frames[f].scale_used);
      EXPECT_EQ(a.frames[f].next_scale, b.frames[f].next_scale);
      EXPECT_EQ(a.frames[f].regressed_t, b.frames[f].regressed_t);
      const auto& da = a.frames[f].detections.detections;
      const auto& db = b.frames[f].detections.detections;
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t d = 0; d < da.size(); ++d) {
        EXPECT_EQ(da[d].class_id, db[d].class_id);
        EXPECT_EQ(da[d].score, db[d].score);
        EXPECT_EQ(da[d].box.x1, db[d].box.x1);
        EXPECT_EQ(da[d].box.y2, db[d].box.y2);
      }
    }
  }

  // The two policies must actually have served different bits somewhere —
  // otherwise the "different policies" premise was vacuous.
  ASSERT_FALSE(par.streams[0].frames.empty());
  ASSERT_FALSE(par.streams[1].frames.empty());
}

TEST_F(ExecPolicyModelTest, MixedPrecisionBatchedServingMatchesSerial) {
  // The acceptance-bar configuration: int8 detector policy + fp32
  // regressor policy on the *prototypes*, inherited by every pool
  // context.  run_batched must be memcmp-equal to run_serial under any
  // batch composition.
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  quantize_models(render(600));
  detector_->set_execution_policy(ExecutionPolicy::int8());
  regressor_->set_execution_policy(ExecutionPolicy::fp32());

  std::vector<const Snippet*> jobs;
  for (const Snippet& s : dataset_.val_snippets()) jobs.push_back(&s);

  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            2, /*init_scale=*/600, /*snap_scales=*/true);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           2, /*init_scale=*/600, /*snap_scales=*/true);
  BatchSchedulerConfig cfg;
  cfg.max_batch = 2;
  const MultiStreamResult bat = batched.run_batched(jobs, cfg);
  const MultiStreamResult ref = serial.run_serial(jobs);

  ASSERT_EQ(bat.streams.size(), ref.streams.size());
  for (std::size_t s = 0; s < bat.streams.size(); ++s) {
    const StreamOutput& a = bat.streams[s];
    const StreamOutput& b = ref.streams[s];
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
      EXPECT_EQ(a.frames[f].scale_used, b.frames[f].scale_used);
      EXPECT_EQ(a.frames[f].regressed_t, b.frames[f].regressed_t);
      const auto& da = a.frames[f].detections.detections;
      const auto& db = b.frames[f].detections.detections;
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t d = 0; d < da.size(); ++d) {
        EXPECT_EQ(da[d].score, db[d].score);
        EXPECT_EQ(da[d].box.x1, db[d].box.x1);
      }
    }
  }
}

}  // namespace
}  // namespace ada
