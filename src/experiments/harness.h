// Experiment harness shared by every bench binary.
//
// Owns a dataset, a model cache, and the trained artifacts (detectors per
// S_train, regressors per architecture), and runs the paper's five testing
// methods over the validation snippets:
//
//   SS/SS      fixed-scale testing at 600 of a single-scale-trained model
//   MS/SS      fixed-scale testing at 600 of a multi-scale-trained model
//   MS/MS      multi-shot testing: all scales in S_reg, results merged w/ NMS
//   MS/Random  a random scale from S_reg per frame
//   MS/AdaScale  Algorithm 1
//
// plus the Fig. 7 video pipelines (DFF, Seq-NMS, and their AdaScale
// combinations).  All detections are rescaled into the scale-600 reference
// frame before evaluation.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adascale/optimal_scale.h"
#include "adascale/pipeline.h"
#include "adascale/regressor_trainer.h"
#include "data/dataset.h"
#include "detection/trainer.h"
#include "eval/map_evaluator.h"
#include "video/seq_nms.h"

namespace ada {

/// Raw per-snippet detections of one method (reference coordinates).
struct SnippetRun {
  std::vector<std::vector<EvalDetection>> frame_dets;
  std::vector<double> frame_ms;
  std::vector<int> frame_scales;
  /// DFF runs only (empty otherwise): whether each frame ran the backbone
  /// and refreshed the key-feature cache.
  std::vector<bool> frame_keys;
};

/// Evaluated summary of one method.
struct MethodRun {
  std::string label;
  MapResult eval;
  double mean_ms = 0.0;        ///< mean per-frame runtime
  double fps = 0.0;
  double mean_macs = 0.0;      ///< model-based conv cost per frame
  std::vector<int> used_scales;  ///< scale of every processed frame
};

class Harness {
 public:
  /// `cache_dir` may be empty to disable the model cache.
  Harness(Dataset dataset, std::string cache_dir);

  const Dataset& dataset() const { return dataset_; }

  /// The multi-scale-trained detector for a given S_train (trains once,
  /// caches in memory and on disk).
  Detector* detector(const ScaleSet& strain);

  /// The scale regressor trained against detector(strain).
  ScaleRegressor* regressor(const ScaleSet& strain, const RegressorConfig& rcfg,
                            const ScaleSet& sreg = ScaleSet::reg_default());

  // ---- raw runners (produce per-snippet detections) ----
  std::vector<SnippetRun> run_fixed(Detector* det, int scale);
  std::vector<SnippetRun> run_random(Detector* det, const ScaleSet& sreg,
                                     std::uint64_t seed);
  std::vector<SnippetRun> run_multiscale(Detector* det, const ScaleSet& sreg);
  std::vector<SnippetRun> run_adascale(Detector* det, ScaleRegressor* reg,
                                       const ScaleSet& sreg);
  /// Oracle upper bound: every frame is processed at its *own* optimal scale
  /// per the Sec. 3.1 metric (requires ground truth; runs the detector at
  /// every scale in `sreg` to find it, but charges only the chosen scale's
  /// runtime).  The temporal-consistency ablation compares AdaScale's
  /// one-frame-lagged prediction against this.
  std::vector<SnippetRun> run_oracle(Detector* det, const ScaleSet& sreg,
                                     const OptimalScaleConfig& ocfg = {});
  /// Same-frame regressor variant: regress t on the current frame at the
  /// inherited scale, re-render this frame at the decoded scale and detect
  /// again (double detection cost — the lag-free but slow alternative to
  /// Algorithm 1).
  std::vector<SnippetRun> run_adascale_same_frame(Detector* det,
                                                  ScaleRegressor* reg,
                                                  const ScaleSet& sreg);
  /// Deep Feature Flow through AdaScalePipeline::set_dff — the serving
  /// keyframe/warp branch.  Plain DFF is `cfg.adascale = false` (the
  /// regressor is then never run); the Fig. 7 rows set
  /// `policy = kFixedInterval` explicitly, since the default is adaptive.
  std::vector<SnippetRun> run_dff(Detector* det, ScaleRegressor* reg,
                                  const DffServingConfig& cfg,
                                  const ScaleSet& sreg);

  /// Optionally applies Seq-NMS (adding its wall time to each snippet's
  /// frames), then evaluates into a MethodRun.
  MethodRun evaluate(const std::string& label, std::vector<SnippetRun> runs,
                     const SeqNmsConfig* seqnms = nullptr);

  /// Per-frame validation ground truth in reference coordinates.
  int reference_h() const { return ref_h_; }
  int reference_w() const { return ref_w_; }

  /// Default regressor config wired to this harness's detector width.
  RegressorConfig default_regressor_config() const;

  /// The INT8 calibration recipe shared by quickstart, tools/calibrate,
  /// and bench_report: up to `n` validation frames rendered cycling
  /// across `sreg`, so the observed activation ranges cover every scale
  /// serving will actually render (calibrating at 600 alone under-covers
  /// small renders and costs ~1 mAP at fixed 600).
  std::vector<Tensor> make_calibration_set(
      int n, const ScaleSet& sreg = ScaleSet::reg_default()) const;

  /// The mixed-precision serving recipe (quickstart under
  /// ADASCALE_GEMM=int8, tools/calibrate --mixed), in one call:
  /// calibrates + quantizes ONLY the detector and pins it to an int8
  /// policy, pins the regressor to fp32, then runs the quantization-aware
  /// alignment pass — the regressor's own scale decisions on fp32
  /// features become distillation targets for a small fine-tune on the
  /// int8 detector's features (ScaleRegressor::fine_tune).  Without the
  /// alignment, int8 feature noise biases t̂ and AdaScale-mode serving
  /// drops 2-4 mAP even with an fp32 regressor; with it the delta sits
  /// within the ±1.0 acceptance bar.  `calib_frames` follows the standard
  /// recipe (make_calibration_set; 16 is the measured sweet spot for the
  /// detector's range observation).  `align_frames` sizes the alignment
  /// pair set independently — distillation generalizes better with more
  /// (feature, target) pairs, while range calibration does not.
  void prepare_mixed_precision(Detector* det, ScaleRegressor* reg,
                               int calib_frames = 16, int align_frames = 48);

  /// The shared (stateless, thread-safe) renderer for this dataset.
  const Renderer& renderer() const { return renderer_; }

 private:
  /// Runs `process` over every val frame; shared runner plumbing.
  template <typename PerSnippetReset, typename PerFrame>
  std::vector<SnippetRun> run_generic(PerSnippetReset reset, PerFrame frame);

  /// Converts a DetectionOutput to reference-frame EvalDetections.
  std::vector<EvalDetection> to_reference(const DetectionOutput& out) const;

  Dataset dataset_;
  Renderer renderer_;
  std::string cache_dir_;
  int ref_h_ = 0, ref_w_ = 0;

  std::map<std::string, std::unique_ptr<Detector>> detectors_;
  std::map<std::string, std::unique_ptr<ScaleRegressor>> regressors_;
};

/// Standard harness sizes used by the benches (kept small enough that the
/// full suite runs in minutes on a laptop CPU, large enough for stable mAP).
struct HarnessSizes {
  int train_snippets = 24;
  int val_snippets = 12;
  std::uint64_t seed = 2019;  ///< the paper's publication year
};

/// Builds the SynthVID harness with standard sizes; cache under `cache_dir`.
Harness make_vid_harness(const std::string& cache_dir,
                         const HarnessSizes& sizes = HarnessSizes{});

/// Builds the SynthYTBB harness.
Harness make_ytbb_harness(const std::string& cache_dir,
                          const HarnessSizes& sizes = HarnessSizes{});

/// Default on-disk cache location (env ADASCALE_CACHE_DIR overrides).
std::string default_cache_dir();

}  // namespace ada
