// Engineering micro-benchmarks (google-benchmark): the kernels whose costs
// determine every number in the paper tables — conv forward at each nominal
// scale, one int8 and one fp32 conv step, the pool step between the convs,
// the scalar stages around them (scene render, detection decode), the
// regressor overhead (paper: "2 ms, ~3% of R-FCN"), NMS, optical flow, and
// Seq-NMS.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "adascale/scale_regressor.h"
#include "data/dataset.h"
#include "detection/detector.h"
#include "detection/nms.h"
#include "tensor/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/image_ops.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "video/optical_flow.h"
#include "video/seq_nms.h"

namespace {

using namespace ada;

struct Fixture {
  Fixture() : dataset(Dataset::synth_vid(1, 1, 77)) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset.catalog().num_classes();
    Rng rng(1);
    detector = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = dcfg.c3;
    regressor = std::make_unique<ScaleRegressor>(rcfg, &rng);
  }

  Dataset dataset;
  std::unique_ptr<Detector> detector;
  std::unique_ptr<ScaleRegressor> regressor;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_DetectorForward(benchmark::State& state) {
  Fixture& f = fixture();
  const int scale = static_cast<int>(state.range(0));
  const Renderer renderer = f.dataset.make_renderer();
  const Tensor img = renderer.render_at_scale(
      *f.dataset.val_frames()[0], scale, f.dataset.scale_policy());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector->detect(img));
  }
  state.counters["macs"] = static_cast<double>(
      f.detector->forward_macs(img.h(), img.w()));
}
BENCHMARK(BM_DetectorForward)->Arg(600)->Arg(480)->Arg(360)->Arg(240)->Arg(128);

// Backbone conv stack at scale 600 under each GEMM backend — the headline
// comparison for the packed-kernel work (ISSUE 2 acceptance: packed ≥2x
// reference single-core).  Measures Detector::forward only (convs + pools +
// heads), no anchor decode / NMS.
void backbone_forward_600(benchmark::State& state, GemmBackend backend) {
  Fixture& f = fixture();
  // Pinned per-model policy — no process-global backend mutation.
  f.detector->set_execution_policy(ExecutionPolicy{backend});
  const Renderer renderer = f.dataset.make_renderer();
  const Tensor img = renderer.render_at_scale(
      *f.dataset.val_frames()[0], 600, f.dataset.scale_policy());
  for (auto _ : state) {
    f.detector->forward(img);
    benchmark::DoNotOptimize(f.detector->features());
  }
  const double macs =
      static_cast<double>(f.detector->forward_macs(img.h(), img.w()));
  state.counters["gflops"] = benchmark::Counter(
      2.0 * macs * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  f.detector->set_execution_policy(ExecutionPolicy::env_default());
}

void BM_BackboneForward600_Packed(benchmark::State& state) {
  backbone_forward_600(state, GemmBackend::kPacked);
}
BENCHMARK(BM_BackboneForward600_Packed);

void BM_BackboneForward600_Reference(benchmark::State& state) {
  backbone_forward_600(state, GemmBackend::kReference);
}
BENCHMARK(BM_BackboneForward600_Reference);

// The INT8 quantized path on the same conv stack (ISSUE 4).  The gflops
// counter counts the same nominal MAC work as the fp32 rows, so all three
// backends are directly comparable.  Calibrates on the bench image itself
// (weights are random here — this row measures kernel speed, not accuracy;
// the accuracy cost lives in bench_report's `quantized` section).
void quantize_fixture_detector() {
  Fixture& f = fixture();
  if (!f.detector->quantized()) {
    const Renderer renderer = f.dataset.make_renderer();
    const Tensor img = renderer.render_at_scale(
        *f.dataset.val_frames()[0], 600, f.dataset.scale_policy());
    f.detector->quantize({img});
  }
}

void BM_BackboneForward600_Int8(benchmark::State& state) {
  quantize_fixture_detector();
  backbone_forward_600(state, GemmBackend::kInt8);
}
BENCHMARK(BM_BackboneForward600_Int8);

// The two vectorized int8 micro-kernel bodies side by side on the same
// machine (tensor/qgemm.h): _Int8Vnni runs the vpdpbusd quad kernel,
// _Int8Maddwd the vpmaddwd s16-pair kernel an AVX-512 CPU without VNNI
// would dispatch; rows the CPU cannot execute are skipped.  Same
// nominal-MAC gflops counter as the other backbone rows.
void backbone_int8_at_isa(benchmark::State& state, KernelIsa isa) {
  if (static_cast<int>(kernel_isa_native()) < static_cast<int>(isa)) {
    state.SkipWithError("CPU lacks this ISA level");
    return;
  }
  quantize_fixture_detector();
  set_qgemm_isa(isa);
  backbone_forward_600(state, GemmBackend::kInt8);
  clear_qgemm_isa();
}

void BM_BackboneForward600_Int8Vnni(benchmark::State& state) {
  backbone_int8_at_isa(state, KernelIsa::kVnni);
}
BENCHMARK(BM_BackboneForward600_Int8Vnni);

void BM_BackboneForward600_Int8Maddwd(benchmark::State& state) {
  backbone_int8_at_isa(state, KernelIsa::kAvx512);
}
BENCHMARK(BM_BackboneForward600_Int8Maddwd);

// One conv step's operands at a scale-600 serving geometry (stride 1,
// "same" padding, one image), shared by the int8 and fp32 conv rows:
// ReLU'd normal activations, like a backbone conv's input, and N(0, 0.1)
// weights.
struct ConvStep {
  ConvSpec spec;
  Tensor x;
  Tensor weights;
  Tensor bias;
};

ConvStep conv_step(int in, int out, int kernel, int h, int w,
                   int dilation = 1) {
  ConvStep s;
  s.spec = ConvSpec{in, out, kernel, 1, dilation * (kernel / 2), dilation};
  Rng rng(13);
  s.x = Tensor(1, in, h, w);
  for (std::size_t i = 0; i < s.x.size(); ++i)
    s.x[i] = std::max(rng.normal(), 0.0f);
  s.weights = Tensor(out, in, kernel, kernel);
  for (std::size_t i = 0; i < s.weights.size(); ++i)
    s.weights[i] = rng.normal(0.0f, 0.1f);
  s.bias = Tensor(1, out, 1, 1);
  return s;
}

// One int8 conv step (3x3, stride 1, pad 1, fused ReLU) at two scale-600
// backbone geometries: conv1 (3->16 on 150x200) and conv2 (16->32 on
// 75x100).  Times the whole conv2d_forward_int8 call: quantizing the
// input, lowering it to columns, packing panels, the integer kernel and
// the dequant epilogue, single image, at the dispatched ISA.
void BM_Conv2dInt8(benchmark::State& state) {
  const ConvStep s =
      conv_step(static_cast<int>(state.range(0)),
                static_cast<int>(state.range(1)), 3,
                static_cast<int>(state.range(2)),
                static_cast<int>(state.range(3)));
  const QuantizedWeights qw = quantize_weights(
      s.weights.data(), s.spec.out_channels,
      s.spec.in_channels * s.spec.kernel * s.spec.kernel,
      choose_qparams(0.0f, 3.0f));
  Tensor y;
  for (auto _ : state) {
    conv2d_forward_int8(s.spec, s.x, qw, s.bias, &y, /*fuse_relu=*/true);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["macs"] =
      static_cast<double>(conv2d_macs(s.spec, s.x.h(), s.x.w()));
}
BENCHMARK(BM_Conv2dInt8)
    ->ArgNames({"in", "out", "h", "w"})
    ->Args({3, 16, 150, 200})
    ->Args({16, 32, 75, 100});

// One fp32 conv step on the packed micro-kernel: the two BM_Conv2dInt8
// backbone geometries (3x3, fused ReLU), conv4 (48->48, 3x3, dilation 4,
// pad 4, fused ReLU, on the 18x25 scale-600 feature map) and the cls head
// (48->248, 1x1, no ReLU, same map), which DFF warp frames run on every
// frame.  Times the whole conv2d_forward call: the zero-padded input copy,
// packing A, the micro-kernel reading B in place and its fused write-out.
void BM_Conv2dPacked(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(2));
  const ConvStep s =
      conv_step(static_cast<int>(state.range(0)),
                static_cast<int>(state.range(1)), kernel,
                static_cast<int>(state.range(3)),
                static_cast<int>(state.range(4)),
                static_cast<int>(state.range(5)));
  const bool relu = kernel == 3;  // backbone convs fuse ReLU, heads do not
  Tensor y;
  for (auto _ : state) {
    conv2d_forward(s.spec, s.x, s.weights, s.bias, &y, relu,
                   GemmBackend::kPacked);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["macs"] =
      static_cast<double>(conv2d_macs(s.spec, s.x.h(), s.x.w()));
}
BENCHMARK(BM_Conv2dPacked)
    ->ArgNames({"in", "out", "k", "h", "w", "d"})
    ->Args({3, 16, 3, 150, 200, 1})
    ->Args({16, 32, 3, 75, 100, 1})
    ->Args({48, 48, 3, 18, 25, 4})
    ->Args({48, 248, 1, 18, 25, 1});

// One 2x2 max-pool step at the scale-600 pool-1 geometry (input
// 1x16x150x200, ReLU'd like conv1's output).  argmax:1 also records the
// argmax the eager training forward keeps for backward; argmax:0 is the
// values-only pool that planned (serving) forwards run.
void BM_MaxPool2(benchmark::State& state) {
  const bool with_argmax = state.range(0) != 0;
  Rng rng(9);
  Tensor x(1, 16, 150, 200);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::max(rng.normal(), 0.0f);
  Tensor y;
  std::vector<int> argmax;
  for (auto _ : state) {
    maxpool2_forward(x, &y, with_argmax ? &argmax : nullptr);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaxPool2)->ArgName("argmax")->Arg(1)->Arg(0);

// The two scalar stages around the backbone GEMMs on a serving frame.
// BM_Render rasterizes a validation scene at a nominal scale; BM_Decode600
// is detect_from_features on the detector's own scale-600 features after
// one forward, i.e. the candidate scan, per-class NMS and top-K with no
// head recompute.  The fixture detector has random weights: no anchor is
// confidently background, so the decode prefilter skips none of them and
// this row times the softmax + NMS path a trained model mostly avoids.
void BM_Render(benchmark::State& state) {
  Fixture& f = fixture();
  const Renderer renderer = f.dataset.make_renderer();
  const Scene& scene = *f.dataset.val_frames()[0];
  const int scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tensor img =
        renderer.render_at_scale(scene, scale, f.dataset.scale_policy());
    benchmark::DoNotOptimize(img.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Render)->Arg(600)->Arg(240);

void BM_Decode600(benchmark::State& state) {
  Fixture& f = fixture();
  const Renderer renderer = f.dataset.make_renderer();
  const Tensor img = renderer.render_at_scale(
      *f.dataset.val_frames()[0], 600, f.dataset.scale_policy());
  const Tensor& features = f.detector->forward(img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.detector->detect_from_features(features, img.h(), img.w()));
  }
}
BENCHMARK(BM_Decode600);

void BM_RegressorPredict(benchmark::State& state) {
  Fixture& f = fixture();
  const Renderer renderer = f.dataset.make_renderer();
  const Tensor img = renderer.render_at_scale(
      *f.dataset.val_frames()[0], static_cast<int>(state.range(0)),
      f.dataset.scale_policy());
  f.detector->forward(img);
  const Tensor features = f.detector->features();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.regressor->predict(features));
  }
}
BENCHMARK(BM_RegressorPredict)->Arg(600)->Arg(240);

void BM_Nms(benchmark::State& state) {
  Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  std::vector<Box> boxes;
  std::vector<float> scores;
  for (int i = 0; i < n; ++i) {
    float x = rng.uniform(0.0f, 180.0f), y = rng.uniform(0.0f, 130.0f);
    boxes.push_back(Box{x, y, x + rng.uniform(5.0f, 40.0f),
                        y + rng.uniform(5.0f, 40.0f)});
    scores.push_back(rng.uniform());
  }
  for (auto _ : state) benchmark::DoNotOptimize(nms(boxes, scores, 0.3f));
}
BENCHMARK(BM_Nms)->Arg(100)->Arg(500)->Arg(2000);

void BM_BlockMatchingFlow(benchmark::State& state) {
  Fixture& f = fixture();
  const Renderer renderer = f.dataset.make_renderer();
  const Tensor a = to_grayscale(renderer.render_at_scale(
      *f.dataset.val_frames()[0], 600, f.dataset.scale_policy()));
  const Tensor b = to_grayscale(renderer.render_at_scale(
      *f.dataset.val_frames()[1], 600, f.dataset.scale_policy()));
  Tensor small_a, small_b;
  bilinear_resize(a, 18, 25, &small_a);
  bilinear_resize(b, 18, 25, &small_b);
  Tensor fy, fx;
  for (auto _ : state)
    block_matching_flow(small_a, small_b, FlowConfig{}, &fy, &fx);
}
BENCHMARK(BM_BlockMatchingFlow);

void BM_SeqNms(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::vector<EvalDetection>> frames(12);
    for (auto& fr : frames)
      for (int k = 0; k < 30; ++k) {
        EvalDetection d;
        float x = rng.uniform(0.0f, 150.0f), y = rng.uniform(0.0f, 100.0f);
        d.box = Box{x, y, x + 20, y + 20};
        d.class_id = k % 5;
        d.score = rng.uniform();
        fr.push_back(d);
      }
    state.ResumeTiming();
    seq_nms(&frames, SeqNmsConfig{});
  }
}
BENCHMARK(BM_SeqNms);

}  // namespace

BENCHMARK_MAIN();
