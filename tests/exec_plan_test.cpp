// Ahead-of-time execution plans: built lazily once per (model, shape,
// backend) and reused (zero arena growth after warm-up, and an fp32 or int8
// plan's arena reserve covering its first forward), invalidated by
// quantize() and training-mode re-entry, kernel choices that follow the
// model's policy, MAC totals that match the architecture's source of
// truth, batched planned forwards bit-identical to per-image on both
// fp32 backends, and golden bytes for the planned forward under every
// kernel family.  The autotune race reads the fastest of several windows on
// an injected clock and runs its kernels inline.
#include "runtime/exec_plan.h"

#include <gtest/gtest.h>

#include <atomic>
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
#include "util/clock.h"
#include "util/file_io.h"

namespace ada {
namespace {

struct BackendGuard {
  GemmBackend saved = gemm_backend();
  ~BackendGuard() { set_gemm_backend(saved); }
};

// ---------------------------------------------------------------- autotune
//
// The per-layer autotuner times int8 first, then packed fp32, for each
// geometry (runtime/exec_plan.h).  These deterministic fakes exploit that
// ordering so fallback decisions are reproducible on any machine.  Each one
// still invokes the closure once, proving the n=1 probe forward really runs.
int g_bench_calls = 0;

/// Strictly increasing readings: the first candidate (int8) always wins.
double bench_int8_wins(const std::function<void()>& run) {
  run();
  return static_cast<double>(++g_bench_calls);
}

/// Strictly decreasing readings: the second candidate (fp32) always wins.
double bench_fp32_wins(const std::function<void()>& run) {
  run();
  return 1.0e6 - static_cast<double>(++g_bench_calls);
}

/// Winner alternates per geometry (each cache miss = one int8 + one fp32
/// call, so the pair index selects): even geometries keep int8, odd ones
/// fall back — a forced per-layer mixed plan.
double bench_alternating(const std::function<void()>& run) {
  run();
  const int call = g_bench_calls++;
  const bool int8_wins = (call / 2) % 2 == 0;
  const bool is_int8_call = call % 2 == 0;
  return (int8_wins == is_int8_call) ? 1.0 : 2.0;
}

/// The default bench's windows on a scripted clock: the race closures
/// advance it by the time each run takes.
ManualClock g_race_clock;
double bench_on_race_clock(const std::function<void()>& run) {
  return autotune_bench_windows(run, g_race_clock);
}

/// Installs a fake bench and isolates the process-global choice cache for
/// one test (clears on entry AND exit so neighbouring tests never see
/// fake-measured winners).
struct AutotuneGuard {
  explicit AutotuneGuard(AutotuneBenchFn fn) {
    g_bench_calls = 0;
    clear_autotune_cache();
    set_autotune_bench(fn);
  }
  ~AutotuneGuard() {
    set_autotune_bench(nullptr);
    clear_autotune_cache();
  }
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
  AutotuneGuard tune(bench_int8_wins);
  std::vector<Tensor> images;
  for (int s : ScaleSet::reg_default().scales) images.push_back(render(s));
  detector_->quantize(images);
  detector_->set_execution_policy(ExecutionPolicy::int8());
  for (const Tensor& img : images) {
    // Built here, so the autotune probes warm this thread, not the fresh one.
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

TEST(AutotuneBench, OneSlowWindowDoesNotHandTheLayerToSteadilySlowerKernel) {
  // int8 runs take 0.3 ms but one is hit by a 20 ms host spike; fp32 runs
  // take a steady 0.45 ms.  The mean of one 2 ms window would read int8 at
  // about 10 ms and fall the layer back to fp32; the fastest window reads
  // the kernel.
  AutotuneGuard tune(bench_on_race_clock);
  int int8_runs = 0, fp32_runs = 0;
  const AutotuneChoice& c = autotune_choice(
      "scripted race",
      [&] { g_race_clock.advance(++int8_runs == 3 ? 20.0 : 0.3); },
      [&] {
        ++fp32_runs;
        g_race_clock.advance(0.45);
      });
  EXPECT_EQ(c.kernel, KernelKind::kInt8);
  EXPECT_NEAR(c.int8_ns, 0.3e6, 1.0);
  EXPECT_NEAR(c.fp32_ns, 0.45e6, 1.0);
  // A warmup run, then windows until three have passed and 2 ms in all:
  // the spike's window ends the int8 side after three windows, while the
  // fp32 side needs five 0.45 ms windows to fill the budget.
  EXPECT_EQ(int8_runs, 4);
  EXPECT_EQ(fp32_runs, 6);
}

TEST(AutotuneBench, RaceRunsItsKernelsInline) {
  // Whatever the pool's width, the race's parallel_for calls run on the
  // racing thread and ask no worker to help.
  AutotuneGuard tune(bench_int8_wins);
  const std::uint64_t helpers = global_pool()->helpers_submitted();
  std::atomic<std::int64_t> cells{0};
  const auto kernel = [&] {
    parallel_for(64, 1, [&](std::int64_t b, std::int64_t e) {
      cells.fetch_add(e - b, std::memory_order_relaxed);
    });
  };
  autotune_choice("inline race", kernel, kernel);
  EXPECT_EQ(cells.load(), 128);
  EXPECT_EQ(global_pool()->helpers_submitted(), helpers);
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
  AutotuneGuard tune(bench_int8_wins);  // deterministic: int8 keeps every layer
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
      // Every kernel-bearing step went through the measured race and
      // carries its timings for plan_dump / bench_report.
      EXPECT_TRUE(s.autotuned) << s.layer;
      EXPECT_GT(s.tuned_int8_ns, 0.0) << s.layer;
      EXPECT_LE(s.tuned_int8_ns, s.tuned_fp32_ns) << s.layer;
    }
  // The printed plan surfaces the race results.
  EXPECT_NE(plan.to_string().find("tuned int8="), std::string::npos);
}

TEST_F(ExecPlanTest, AutotunePerLayerFallbackToFp32) {
  BackendGuard guard;
  AutotuneGuard tune(bench_fp32_wins);  // deterministic: fp32 wins everywhere
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  detector_->quantize({img});
  detector_->set_execution_policy(ExecutionPolicy::int8());

  const ExecutionPlan& plan = detector_->plan_for(1, img.h(), img.w());
  EXPECT_EQ(plan.policy, "int8");
  for (const PlanStep& s : plan.steps)
    if (s.kernel != KernelKind::kNone) {
      // The layer resolved to int8 but the measured race demoted it.
      EXPECT_EQ(s.kernel, KernelKind::kGemmPacked) << s.layer;
      EXPECT_TRUE(s.autotuned) << s.layer;
      EXPECT_GT(s.tuned_fp32_ns, 0.0) << s.layer;
      EXPECT_LT(s.tuned_fp32_ns, s.tuned_int8_ns) << s.layer;
    }
  // A fully demoted plan still serves (and runs the fp32 packed kernels).
  detector_->detect(img);
}

TEST_F(ExecPlanTest, AutotuneMixedPlanFallsBackPerLayer) {
  BackendGuard guard;
  AutotuneGuard tune(bench_alternating);
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  detector_->quantize({img});
  detector_->set_execution_policy(ExecutionPolicy::int8());

  const ExecutionPlan& plan = detector_->plan_for(1, img.h(), img.w());
  int int8_steps = 0, fp32_steps = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.kernel == KernelKind::kNone) continue;
    EXPECT_TRUE(s.autotuned) << s.layer;
    // The planned kernel is exactly what the recorded timings dictate —
    // fallback is per layer, not per plan.
    const KernelKind want = s.tuned_int8_ns <= s.tuned_fp32_ns
                                ? KernelKind::kInt8
                                : KernelKind::kGemmPacked;
    EXPECT_EQ(s.kernel, want) << s.layer;
    (s.kernel == KernelKind::kInt8 ? int8_steps : fp32_steps)++;
  }
  EXPECT_GT(int8_steps, 0);
  EXPECT_GT(fp32_steps, 0) << "alternating bench must demote some layers";
  detector_->detect(img);  // mixed plan serves fine
}

TEST_F(ExecPlanTest, AutotuneChoicesMemoizedAndSharedAcrossInstances) {
  BackendGuard guard;
  AutotuneGuard tune(bench_int8_wins);
  set_gemm_backend(GemmBackend::kPacked);
  const Tensor img = render(240);
  detector_->quantize({img});
  detector_->set_execution_policy(ExecutionPolicy::int8());

  EXPECT_EQ(autotune_cache_size(), 0u);
  const ExecutionPlan& plan = detector_->plan_for(1, img.h(), img.w());
  const std::size_t geometries = autotune_cache_size();
  EXPECT_GT(geometries, 0u);
  const int calls_after_first = g_bench_calls;
  EXPECT_EQ(calls_after_first, static_cast<int>(2 * geometries))
      << "one int8 + one fp32 measurement per distinct geometry";

  // A second shape at the same scale hits only already-measured
  // geometries for layers whose (h, w) match; new spatial sizes add new
  // keys but batch size never does: a batched plan re-measures nothing.
  const ExecutionPlan& batched = detector_->plan_for(2, img.h(), img.w());
  EXPECT_EQ(autotune_cache_size(), geometries);
  EXPECT_EQ(g_bench_calls, calls_after_first)
      << "batch size is excluded from the autotune key";
  ASSERT_EQ(batched.steps.size(), plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i)
    EXPECT_EQ(batched.steps[i].kernel, plan.steps[i].kernel);

  // A weight-aliased clone shares the plan cache outright; even an
  // INDEPENDENT instance with the same architecture re-measures nothing —
  // the choice cache is process-global, which is what keeps
  // master-vs-clone outputs bit-identical.  The clone's policy change
  // clears the shared cache (freeing `plan` and `batched`), so both plans
  // are taken after it.
  std::unique_ptr<Detector> clone = clone_detector_shared(detector_.get());
  clone->set_execution_policy(ExecutionPolicy::int8());
  EXPECT_EQ(&clone->plan_for(1, img.h(), img.w()),
            &detector_->plan_for(1, img.h(), img.w()))
      << "aliased clones share the plan cache";
  EXPECT_EQ(g_bench_calls, calls_after_first);

  clear_autotune_cache();
  EXPECT_EQ(autotune_cache_size(), 0u);
  detector_->set_execution_policy(ExecutionPolicy::int8());  // drops plans
  detector_->plan_for(1, img.h(), img.w());
  EXPECT_EQ(autotune_cache_size(), geometries) << "rebuild re-measures";
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
  // default reads the same bytes; the int8 rows pin the autotuner with the
  // deterministic fakes, so their plans do not depend on timing (the
  // alternating one serves a per-layer int8/fp32 mix).
  struct Row {
    const char* name;
    ExecutionPolicy policy;
    AutotuneBenchFn bench;  ///< nullptr: the fp32 rows race nothing
    std::uint64_t hash;
  };
  const Row rows[] = {
      {"fp32", ExecutionPolicy::fp32(), nullptr, 0x3078469e3e895d3cULL},
      {"reference", ExecutionPolicy::reference(), nullptr,
       0x4b856c309dd035caULL},
      {"int8, int8 wins", ExecutionPolicy::int8(), bench_int8_wins,
       0x821d1aa9e90fc73cULL},
      {"int8, alternating", ExecutionPolicy::int8(), bench_alternating,
       0xe769e89729ea5a9bULL},
  };
  std::vector<Tensor> images;
  for (int s : ScaleSet::reg_default().scales) images.push_back(render(s));
  // One calibration over every scale; the fp32 rows ignore the tables.
  detector_->quantize(images);
  for (const Row& row : rows) {
    AutotuneGuard tune(row.bench);
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
