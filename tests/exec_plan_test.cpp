// Ahead-of-time execution plans: built lazily once per (model, shape,
// backend) and reused (zero arena growth after warm-up, and an fp32 or int8
// plan's arena reserve covering its first forward), invalidated by
// quantize() and training-mode re-entry, kernel choices that follow the
// model's policy, MAC totals that match the architecture's source of
// truth, batched planned forwards bit-identical to per-image on both
// fp32 backends, and golden bytes for the planned forward under every
// kernel family.  A quantized model's int8 plan runs int8 on every
// kernel-bearing step, batched or not and through any weight-aliased clone.
#include "runtime/exec_plan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adascale/scale_set.h"
#include "data/dataset.h"
#include "detection/detector.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "util/file_io.h"

namespace ada {
namespace {

struct BackendGuard {
  GemmBackend saved = gemm_backend();
  ~BackendGuard() { set_gemm_backend(saved); }
};

class ExecPlanTest : public ::testing::Test {
 protected:
  ExecPlanTest()
      : dataset_(Dataset::synth_vid(1, 2, 77)),
        renderer_(dataset_.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset_.catalog().num_classes();
    Rng rng(5);
    detector_ = std::make_unique<Detector>(dcfg, &rng);
  }

  Tensor render(int scale) const {
    return renderer_.render_at_scale(dataset_.val_snippets()[0].frames[0],
                                     scale, dataset_.scale_policy());
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
};

TEST_F(ExecPlanTest, PlanBuiltOncePerShapeAndReused) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  EXPECT_EQ(detector_->cached_plan_count(), 0u);

  detector_->detect(img);
  EXPECT_EQ(detector_->cached_plan_count(), 1u);
  const ExecutionPlan* plan = &detector_->plan_for(1, img.h(), img.w());

  // Repeated serving at the same scale reuses the same plan object; a new
  // scale adds exactly one more.
  detector_->detect(img);
  detector_->detect(img);
  EXPECT_EQ(detector_->cached_plan_count(), 1u);
  EXPECT_EQ(&detector_->plan_for(1, img.h(), img.w()), plan);

  const Tensor img2 = render(360);
  detector_->detect(img2);
  EXPECT_EQ(detector_->cached_plan_count(), 2u);
}

TEST_F(ExecPlanTest, ZeroArenaGrowthAfterWarmup) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  const Tensor img2 = render(360);
  // Warm-up: every scale this test serves, once.
  detector_->detect(img);
  detector_->detect(img2);
  const std::size_t allocs = scratch_arena().heap_alloc_count();
  for (int i = 0; i < 3; ++i) {
    detector_->detect(img);
    detector_->detect(img2);
  }
  EXPECT_EQ(scratch_arena().heap_alloc_count(), allocs)
      << "steady-state planned forwards must not touch the allocator";
}

TEST_F(ExecPlanTest, Int8ArenaReserveCoversPlannedForward) {
  // The int8 plan's arena_floats, reserved up front on a thread that has
  // never run a kernel, must cover every byte workspace the int8 conv and
  // qgemm claim: one planned forward then grows nothing.  Kernels run
  // inline so every stripe's panels land on this thread's arena.
  BackendGuard guard;
  std::vector<Tensor> images;
  for (int s : ScaleSet::reg_default().scales) images.push_back(render(s));
  detector_->quantize(images);
  detector_->set_execution_policy(ExecutionPolicy::int8());
  for (const Tensor& img : images) {
    const ExecutionPlan& plan = detector_->plan_for(1, img.h(), img.w());
    for (const PlanStep& s : plan.steps) {
      if (s.kernel != KernelKind::kNone) {
        ASSERT_EQ(s.kernel, KernelKind::kInt8) << s.layer;
      }
    }
    std::size_t grown = 0;
    std::thread fresh([&] {
      InlineKernelScope inline_kernels;
      ScratchArena& arena = scratch_arena();
      arena.reserve(plan.arena_floats);
      const std::size_t allocs = arena.heap_alloc_count();
      detector_->forward(img);
      grown = arena.heap_alloc_count() - allocs;
    });
    fresh.join();
    EXPECT_EQ(grown, 0u) << img.h() << "x" << img.w()
                         << ": arena_floats=" << plan.arena_floats;
  }
}

TEST_F(ExecPlanTest, Fp32ArenaReserveCoversPlannedForward) {
  // The fp32 twin of the int8 test above: the packed plan's arena_floats
  // must cover what the direct stride-1 conv claims (the padded images,
  // their offset table and the A panels) at every S_reg scale, for one
  // image and for a batch of three.
  BackendGuard guard;
  detector_->set_execution_policy(ExecutionPolicy::fp32());
  for (int s : ScaleSet::reg_default().scales) {
    const Tensor img = render(s);
    for (const Tensor& input : {img, Tensor::batch_of({&img, &img, &img})}) {
      const ExecutionPlan& plan =
          detector_->plan_for(input.n(), input.h(), input.w());
      std::size_t grown = 0;
      std::thread fresh([&] {
        InlineKernelScope inline_kernels;
        ScratchArena& arena = scratch_arena();
        arena.reserve(plan.arena_floats);
        const std::size_t allocs = arena.heap_alloc_count();
        detector_->forward(input);
        grown = arena.heap_alloc_count() - allocs;
      });
      fresh.join();
      EXPECT_EQ(grown, 0u) << input.n() << "x" << input.h() << "x"
                           << input.w()
                           << ": arena_floats=" << plan.arena_floats;
    }
  }
}

TEST_F(ExecPlanTest, PlanContentMatchesArchitecture) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  const ExecutionPlan& plan = detector_->plan_for(1, img.h(), img.w());

  // 4 backbone convs + 3 pools + 2 heads = 9 leaf steps.
  EXPECT_EQ(plan.steps.size(), 9u);
  EXPECT_EQ(plan.policy, "packed");
  EXPECT_EQ(plan.input.h, img.h());
  EXPECT_EQ(plan.input.w, img.w());
  // Every conv step resolved to the packed kernel with a real workspace;
  // pools carry no kernel.
  int convs = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.kernel == KernelKind::kNone) continue;
    ++convs;
    EXPECT_EQ(s.kernel, KernelKind::kGemmPacked) << s.layer;
    EXPECT_GT(s.workspace_floats, 0u) << s.layer;
  }
  EXPECT_EQ(convs, 6);
  EXPECT_GT(plan.arena_floats, 0u);
  // MACs come from the same geometry forward_macs uses.
  EXPECT_EQ(plan.total_macs(), detector_->forward_macs(img.h(), img.w()));
  // The printable form carries the per-layer table plan_dump shows.
  const std::string dump = plan.to_string();
  EXPECT_NE(dump.find("conv2d+relu"), std::string::npos);
  EXPECT_NE(dump.find("packed"), std::string::npos);
}

TEST_F(ExecPlanTest, QuantizeInvalidatesAndReplansToInt8) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  detector_->detect(img);
  EXPECT_EQ(detector_->cached_plan_count(), 1u);

  detector_->quantize({img});
  EXPECT_EQ(detector_->cached_plan_count(), 0u)
      << "quantize() must invalidate cached plans";

  detector_->set_execution_policy(ExecutionPolicy::int8());
  const ExecutionPlan& plan = detector_->plan_for(1, img.h(), img.w());
  EXPECT_EQ(plan.policy, "int8");
  for (const PlanStep& s : plan.steps)
    if (s.kernel != KernelKind::kNone) {
      EXPECT_EQ(s.kernel, KernelKind::kInt8) << s.layer;
    }

  // A batched plan runs the per-image plan's kernels.
  const ExecutionPlan& batched = detector_->plan_for(2, img.h(), img.w());
  ASSERT_EQ(batched.steps.size(), plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i)
    EXPECT_EQ(batched.steps[i].kernel, plan.steps[i].kernel);

  // A weight-aliased clone shares the plan cache outright.  The clone's
  // policy change clears the shared cache (freeing `plan` and `batched`),
  // so both plans are taken after it.
  std::unique_ptr<Detector> clone = clone_detector_shared(detector_.get());
  clone->set_execution_policy(ExecutionPolicy::int8());
  EXPECT_EQ(&clone->plan_for(1, img.h(), img.w()),
            &detector_->plan_for(1, img.h(), img.w()))
      << "aliased clones share the plan cache";
}

TEST_F(ExecPlanTest, TrainingReentryInvalidatesPlans) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  detector_->detect(img);
  EXPECT_GE(detector_->cached_plan_count(), 1u);

  Sgd opt(detector_->parameters(), Sgd::Options{});
  Rng rng(3);
  detector_->train_step(img, {}, &opt, &rng);
  EXPECT_EQ(detector_->cached_plan_count(), 0u)
      << "training-mode re-entry must invalidate plans (weights changed)";

  // Serving after training rebuilds lazily and still works.
  detector_->detect(img);
  EXPECT_EQ(detector_->cached_plan_count(), 1u);
}

TEST_F(ExecPlanTest, UnpinnedPolicyPlansPerResolvedBackend) {
  // A backend-keyed cache is what lets an env-following model keep
  // honoring set_gemm_backend flips without serving stale kernels.
  BackendGuard guard;
  const Tensor img = render(240);
  set_gemm_backend(GemmBackend::kReference);
  detector_->forward(img);
  const ExecutionPlan& ref_plan = detector_->plan_for(1, img.h(), img.w());
  EXPECT_EQ(ref_plan.policy, "reference");
  set_gemm_backend(GemmBackend::kPacked);
  detector_->forward(img);
  const ExecutionPlan& packed_plan = detector_->plan_for(1, img.h(), img.w());
  EXPECT_EQ(packed_plan.policy, "packed");
  EXPECT_EQ(detector_->cached_plan_count(), 2u);
  // The two cached plans really resolve to different kernels.  (Feature
  // *bits* can legitimately coincide here: with zero conv biases both fp32
  // backends run the same strict ascending-k chains.)
  ASSERT_FALSE(ref_plan.steps.empty());
  EXPECT_EQ(ref_plan.steps[0].kernel, KernelKind::kGemmReference);
  EXPECT_EQ(packed_plan.steps[0].kernel, KernelKind::kGemmPacked);
}

TEST_F(ExecPlanTest, BatchedPlannedForwardBitIdenticalPerImageBothBackends) {
  BackendGuard guard;
  set_gemm_backend(GemmBackend::kInt8);  // models pin; global must not matter
  const Tensor f0 = render(240);
  const Tensor f1 = renderer_.render_at_scale(
      dataset_.val_snippets()[1].frames[0], 240, dataset_.scale_policy());
  const std::vector<const Tensor*> imgs{&f0, &f1};
  const Tensor batch = Tensor::batch_of(imgs);

  for (const ExecutionPolicy& policy :
       {ExecutionPolicy::fp32(), ExecutionPolicy::reference()}) {
    detector_->set_execution_policy(policy);
    const std::vector<DetectionOutput> batched =
        detector_->detect_batch(batch);
    const Tensor batched_feats = detector_->features();
    ASSERT_EQ(batched.size(), 2u);
    for (int n = 0; n < 2; ++n) {
      const DetectionOutput single = detector_->detect(*imgs[n]);
      const Tensor single_feats = detector_->features();
      // Deep features bitwise, detections field-by-field.
      const Tensor bf = batched_feats.image(n);
      ASSERT_TRUE(bf.same_shape(single_feats));
      EXPECT_EQ(0, std::memcmp(bf.data(), single_feats.data(),
                               bf.size() * sizeof(float)));
      const auto& da = batched[static_cast<std::size_t>(n)].detections;
      const auto& db = single.detections;
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t d = 0; d < da.size(); ++d) {
        EXPECT_EQ(da[d].score, db[d].score);
        EXPECT_EQ(da[d].box.x1, db[d].box.x1);
        EXPECT_EQ(da[d].box.y2, db[d].box.y2);
      }
    }
  }
}

/// Appends the raw bytes of a trivially copyable value.
template <typename T>
void put(std::string* bytes, const T& v) {
  bytes->append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Everything a consumer of one planned detect observes: the deep features
/// (the regressor and the DFF cache read them) and every detection field.
std::string detect_bytes(const Tensor& features, const DetectionOutput& d) {
  std::string b;
  put(&b, features.n());
  put(&b, features.c());
  put(&b, features.h());
  put(&b, features.w());
  b.append(reinterpret_cast<const char*>(features.data()),
           features.size() * sizeof(float));
  put(&b, d.image_h);
  put(&b, d.image_w);
  put(&b, d.detections.size());
  for (const Detection& x : d.detections) {
    put(&b, x.class_id);
    put(&b, x.box);
    put(&b, x.score);
    put(&b, x.probs.size());
    b.append(reinterpret_cast<const char*>(x.probs.data()),
             x.probs.size() * sizeof(float));
    put(&b, x.delta);
    put(&b, x.anchor);
  }
  return b;
}

TEST_F(ExecPlanTest, PlannedForwardGoldenBytes) {
  // The planned forward pinned byte for byte at every S_reg scale, one row
  // per kernel family.  The models are pinned, so every ADASCALE_GEMM
  // default reads the same bytes, and int8 bytes do not depend on the
  // dispatched ISA, so the int8 row holds under every ADASCALE_ISA cap.
  struct Row {
    const char* name;
    ExecutionPolicy policy;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {"fp32", ExecutionPolicy::fp32(), 0x3078469e3e895d3cULL},
      {"reference", ExecutionPolicy::reference(), 0x4b856c309dd035caULL},
      {"int8", ExecutionPolicy::int8(), 0x821d1aa9e90fc73cULL},
  };
  std::vector<Tensor> images;
  for (int s : ScaleSet::reg_default().scales) images.push_back(render(s));
  // One calibration over every scale; the fp32 rows ignore the tables.
  detector_->quantize(images);
  for (const Row& row : rows) {
    detector_->set_execution_policy(row.policy);  // drops cached plans
    std::string all;
    std::ostringstream per_scale;
    for (const Tensor& img : images) {
      const DetectionOutput out = detector_->detect(img);
      ASSERT_FALSE(out.detections.empty()) << row.name;
      const std::string b = detect_bytes(detector_->features(), out);
      per_scale << "\n  " << img.h() << "x" << img.w() << ": 0x" << std::hex
                << fnv1a(b) << std::dec;
      all += b;
    }
    EXPECT_EQ(fnv1a(all), row.hash)
        << row.name << "; per-scale hashes:" << per_scale.str();
  }
}

}  // namespace
}  // namespace ada
