// calibrate — post-training INT8 calibration and accuracy report.
//
// Loads the cached multi-scale detector + scale regressor (training them on
// first run, like every bench), builds the standard calibration set — N
// validation frames cycled across the regressor scale set
// (Harness::make_calibration_set) — freezes INT8 state, then prints:
//
//   * per-layer calibration summaries (activation range → u8 scale/zero
//     point, per-channel weight-scale spread),
//   * the quickstart eval under fp32 vs the quantized config: fixed-600
//     and AdaScale mAP + per-frame runtime, and the mAP delta the ISSUE
//     acceptance bar and BENCH_kernels.json carry.
//
// Backends are selected with pinned per-model ExecutionPolicy values
// (runtime/exec_policy.h) — the process-wide ADASCALE_GEMM default is
// never touched, so rows cannot contaminate each other.
//
// Two modes:
//   default      quantizes detector AND regressor (all-int8 serving, plus
//                a mixed row for comparison); delta bar on fixed-600.
//   --mixed      the mixed-precision serving recipe: quantizes ONLY the
//                detector, regressor stays fp32 — the config that recovers
//                the AdaScale-mode mAP the all-int8 path loses to scale-
//                decision noise; delta bar on AdaScale mode.
//
// Usage: calibrate [num_frames] [--mixed]        (default 16 frames)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "experiments/harness.h"
#include "runtime/exec_policy.h"

using namespace ada;

int main(int argc, char** argv) {
  int num_frames = 16;
  bool mixed_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mixed") == 0) {
      mixed_mode = true;
      continue;
    }
    num_frames = std::atoi(argv[i]);
    if (num_frames < 1) {
      // A zero-frame calibration would freeze nothing, every "int8" eval
      // below would silently fall back to fp32, and the delta would be a
      // vacuous 0.00 PASS.
      std::fprintf(stderr,
                   "calibrate: num_frames must be >= 1 (got \"%s\")\n",
                   argv[i]);
      return 1;
    }
  }

  Harness h = make_vid_harness(default_cache_dir());
  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg =
      h.regressor(ScaleSet::train_default(), h.default_regressor_config());

  std::printf("calibrating on up to %d frames across the regressor scale "
              "set (%s mode)...\n",
              num_frames, mixed_mode ? "--mixed" : "all-int8");

  // The regressor used for the mixed row: a clone of the trained fp32
  // regressor, aligned to the int8 feature distribution by the
  // mixed-precision recipe (the original stays untouched so the fp32
  // baseline rows are the pre-alignment model).
  std::unique_ptr<ScaleRegressor> reg_mixed = clone_regressor(reg);
  h.prepare_mixed_precision(det, reg_mixed.get(), num_frames);
  if (!det->quantized()) {
    std::fprintf(stderr, "calibrate: detector did not quantize (empty "
                         "calibration set?)\n");
    return 1;
  }
  if (!mixed_mode) {
    // All-int8 mode additionally quantizes the regressor, calibrating on
    // INT8-produced deep features — what it will actually receive at
    // all-int8 serving time.
    det->set_execution_policy(ExecutionPolicy::int8());
    const std::vector<Tensor> calib = h.make_calibration_set(num_frames);
    std::vector<Tensor> feats;
    for (const Tensor& img : calib) feats.push_back(det->forward(img));
    det->set_execution_policy(ExecutionPolicy::fp32());
    reg->quantize(feats);
  }

  std::printf("\n%-12s %22s %12s %8s %26s\n", "layer", "act range",
              "act scale", "zp", "w scale [min, max]");
  auto print_summary = [](const QuantSummary& s) {
    std::printf("%-12s [%9.4f, %9.4f] %12.6f %8d [%.6f, %.6f]  (%dx%d)\n",
                s.layer.c_str(), s.act_lo, s.act_hi, s.act.scale,
                s.act.zero_point, s.wscale_min, s.wscale_max, s.rows, s.cols);
  };
  for (const QuantSummary& s : det->quant_summaries()) print_summary(s);
  for (const QuantSummary& s : reg->quant_summaries()) print_summary(s);

  // fp32 vs quantized on the quickstart eval.  Identical work per row pair
  // — only the per-model policies change.
  std::printf("\nevaluating fp32 (packed) vs quantized...\n");
  det->set_execution_policy(ExecutionPolicy::fp32());
  reg->set_execution_policy(ExecutionPolicy::fp32());
  MethodRun fx32 = h.evaluate("fixed-600/fp32", h.run_fixed(det, 600));
  MethodRun ada32 = h.evaluate(
      "AdaScale/fp32", h.run_adascale(det, reg, ScaleSet::reg_default()));

  det->set_execution_policy(ExecutionPolicy::int8());
  MethodRun fx8 = h.evaluate("fixed-600/int8", h.run_fixed(det, 600));
  // Mixed precision: the scale decision is far more sensitive to
  // quantization noise than the detections are (a flipped t̂ changes the
  // *entire* next frame), so serving keeps the tiny regressor fp32 —
  // aligned to the int8 feature distribution — and still takes the int8
  // detector.
  MethodRun mixed = h.evaluate(
      "AdaScale/int8+fp32reg",
      h.run_adascale(det, reg_mixed.get(), ScaleSet::reg_default()));

  std::vector<const MethodRun*> rows{&fx32, &fx8, &ada32, &mixed};
  MethodRun ada8;
  if (!mixed_mode) {
    reg->set_execution_policy(ExecutionPolicy::int8());
    ada8 = h.evaluate("AdaScale/int8",
                      h.run_adascale(det, reg, ScaleSet::reg_default()));
    rows.insert(rows.begin() + 3, &ada8);
  }
  det->set_execution_policy(ExecutionPolicy::fp32());
  reg->set_execution_policy(ExecutionPolicy::fp32());

  std::printf("\n%-22s %8s %10s\n", "method", "mAP", "ms/frame");
  for (const MethodRun* r : rows)
    std::printf("%-22s %8.2f %10.2f\n", r->label.c_str(),
                100.0 * r->eval.map, r->mean_ms);

  if (mixed_mode) {
    // The mixed recipe's bar rides the AdaScale mode — the mode the
    // all-int8 path loses 2-4 mAP on.
    const double delta = 100.0 * (mixed.eval.map - ada32.eval.map);
    std::printf("\nAdaScale-mode mAP delta (int8 det + fp32 reg - fp32): "
                "%+.2f\n", delta);
    std::printf("acceptance: |delta| <= 1.0 -> %s\n",
                delta >= -1.0 && delta <= 1.0 ? "PASS" : "FAIL");
  } else {
    const double delta = 100.0 * (fx8.eval.map - fx32.eval.map);
    std::printf("\nfixed-600 mAP delta (int8 - fp32): %+.2f\n", delta);
    std::printf("acceptance: |delta| <= 1.0 -> %s\n",
                delta >= -1.0 && delta <= 1.0 ? "PASS" : "FAIL");
  }
  return 0;
}
