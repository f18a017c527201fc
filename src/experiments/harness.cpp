#include "experiments/harness.h"

#include <cstdio>
#include <cstdlib>

#include "detection/nms.h"
#include "util/timer.h"

namespace ada {

Harness::Harness(Dataset dataset, std::string cache_dir)
    : dataset_(std::move(dataset)),
      renderer_(dataset_.make_renderer()),
      cache_dir_(std::move(cache_dir)) {
  const ScalePolicy& policy = dataset_.scale_policy();
  ref_h_ = policy.render_h(600);
  ref_w_ = policy.render_w(600);
}

Detector* Harness::detector(const ScaleSet& strain) {
  const std::string key = strain.to_string();
  auto it = detectors_.find(key);
  if (it != detectors_.end()) return it->second.get();

  DetectorConfig dcfg;
  dcfg.num_classes = dataset_.catalog().num_classes();
  TrainConfig tcfg;
  tcfg.train_scales = strain.scales;
  auto det = train_or_load_detector(dataset_, dcfg, tcfg, cache_dir_);
  Detector* raw = det.get();
  detectors_.emplace(key, std::move(det));
  return raw;
}

ScaleRegressor* Harness::regressor(const ScaleSet& strain,
                                   const RegressorConfig& rcfg,
                                   const ScaleSet& sreg) {
  const std::string key =
      strain.to_string() + "|" + rcfg.fingerprint() + "|" + sreg.to_string();
  auto it = regressors_.find(key);
  if (it != regressors_.end()) return it->second.get();

  Detector* det = detector(strain);
  RegressorTrainConfig tcfg;
  tcfg.sreg = sreg;
  TrainConfig det_tcfg;
  det_tcfg.train_scales = strain.scales;
  // Label generation and regressor training happen on a sibling split the
  // detector has never seen (see Dataset::sibling): on our data scale the
  // detector memorizes its training frames and the Sec. 3.1 labels would
  // degenerate to "stay at 600".
  const Dataset reg_split = dataset_.sibling(
      /*train_snippets=*/32, /*val_snippets=*/0, dataset_.seed() ^ 0x5EEDULL);
  auto reg = train_or_load_regressor(det, det_tcfg.fingerprint(), reg_split,
                                     rcfg, tcfg, cache_dir_);
  ScaleRegressor* raw = reg.get();
  regressors_.emplace(key, std::move(reg));
  return raw;
}

RegressorConfig Harness::default_regressor_config() const {
  RegressorConfig rcfg;
  DetectorConfig dcfg;
  rcfg.in_channels = dcfg.c3;
  return rcfg;
}

std::vector<Tensor> Harness::make_calibration_set(
    int n, const ScaleSet& sreg) const {
  const auto& frames = dataset_.val_frames();
  std::vector<Tensor> calib;
  for (int i = 0; i < n && i < static_cast<int>(frames.size()); ++i)
    calib.push_back(renderer_.render_at_scale(
        *frames[static_cast<std::size_t>(i)],
        sreg.scales[static_cast<std::size_t>(i) % sreg.scales.size()],
        dataset_.scale_policy()));
  return calib;
}

void Harness::prepare_mixed_precision(Detector* det, ScaleRegressor* reg,
                                      int calib_frames, int align_frames) {
  det->quantize(make_calibration_set(calib_frames));
  // Alignment pairs are sized independently of the range calibration: the
  // distillation below generalizes better with more (feature, target)
  // pairs, while the detector's activation-range observation is already
  // saturated at calib_frames.
  const std::vector<Tensor> align = make_calibration_set(align_frames);
  // Teacher pass first: the regressor's own decisions on fp32 features,
  // captured before any weight moves.
  det->set_execution_policy(ExecutionPolicy::fp32());
  reg->set_execution_policy(ExecutionPolicy::fp32());
  std::vector<float> targets;
  targets.reserve(align.size());
  for (const Tensor& img : align)
    targets.push_back(reg->predict(det->forward(img)));
  // Student pass: the same frames through the int8 detector — the feature
  // distribution mixed serving will actually produce.
  det->set_execution_policy(ExecutionPolicy::int8());
  std::vector<Tensor> feats;
  feats.reserve(align.size());
  for (const Tensor& img : align) feats.push_back(det->forward(img));
  // Alignment: cancel the systematic t̂ shift int8 features induce, while
  // the regressor itself keeps serving fp32 kernels.
  double before = 0.0;
  for (std::size_t i = 0; i < feats.size(); ++i) {
    const double d = static_cast<double>(reg->predict(feats[i])) -
                     static_cast<double>(targets[i]);
    before += d * d;
  }
  before /= static_cast<double>(std::max<std::size_t>(feats.size(), 1));
  const float after = reg->fine_tune(feats, targets);
  std::fprintf(stderr,
               "[mixed] regressor alignment on %zu frames: t-hat MSE "
               "%.3g -> %.3g\n",
               feats.size(), before, static_cast<double>(after));
}

std::vector<EvalDetection> Harness::to_reference(
    const DetectionOutput& out) const {
  std::vector<EvalDetection> dets;
  dets.reserve(out.detections.size());
  for (const Detection& d : out.detections) {
    EvalDetection e;
    e.box = rescale_box(d.box, out.image_h, out.image_w, ref_h_, ref_w_);
    e.class_id = d.class_id;
    e.score = d.score;
    dets.push_back(e);
  }
  return dets;
}

template <typename PerSnippetReset, typename PerFrame>
std::vector<SnippetRun> Harness::run_generic(PerSnippetReset reset,
                                             PerFrame frame) {
  std::vector<SnippetRun> runs;
  for (const Snippet& snip : dataset_.val_snippets()) {
    reset();
    SnippetRun run;
    for (const Scene& scene : snip.frames) frame(scene, &run);
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<SnippetRun> Harness::run_fixed(Detector* det, int scale) {
  const ScalePolicy& policy = dataset_.scale_policy();
  return run_generic(
      [] {},
      [&](const Scene& scene, SnippetRun* run) {
        const Tensor image = renderer_.render_at_scale(scene, scale, policy);
        DetectionOutput out = det->detect(image);
        run->frame_dets.push_back(to_reference(out));
        run->frame_ms.push_back(out.forward_ms);
        run->frame_scales.push_back(scale);
      });
}

std::vector<SnippetRun> Harness::run_random(Detector* det,
                                            const ScaleSet& sreg,
                                            std::uint64_t seed) {
  const ScalePolicy& policy = dataset_.scale_policy();
  Rng rng(seed);
  return run_generic(
      [] {},
      [&](const Scene& scene, SnippetRun* run) {
        const int scale = sreg.scales[static_cast<std::size_t>(
            rng.uniform_int(0, sreg.count() - 1))];
        const Tensor image = renderer_.render_at_scale(scene, scale, policy);
        DetectionOutput out = det->detect(image);
        run->frame_dets.push_back(to_reference(out));
        run->frame_ms.push_back(out.forward_ms);
        run->frame_scales.push_back(scale);
      });
}

std::vector<SnippetRun> Harness::run_multiscale(Detector* det,
                                                const ScaleSet& sreg) {
  const ScalePolicy& policy = dataset_.scale_policy();
  DetectorConfig dcfg = det->config();
  return run_generic(
      [] {},
      [&](const Scene& scene, SnippetRun* run) {
        double total_ms = 0.0;
        std::vector<EvalDetection> merged;
        for (int scale : sreg.scales) {
          const Tensor image = renderer_.render_at_scale(scene, scale, policy);
          DetectionOutput out = det->detect(image);
          total_ms += out.forward_ms;
          std::vector<EvalDetection> ref = to_reference(out);
          merged.insert(merged.end(), ref.begin(), ref.end());
        }
        // Merge with per-class NMS in the reference frame, keep top-K
        // (multi-shot testing protocol, Sec. 2.1).
        std::vector<int> keep = nms_detections(merged, dcfg.nms_threshold);
        if (static_cast<int>(keep.size()) > dcfg.top_k)
          keep.resize(static_cast<std::size_t>(dcfg.top_k));
        std::vector<EvalDetection> out_dets;
        out_dets.reserve(keep.size());
        for (int k : keep)
          out_dets.push_back(merged[static_cast<std::size_t>(k)]);
        run->frame_dets.push_back(std::move(out_dets));
        run->frame_ms.push_back(total_ms);
        run->frame_scales.push_back(sreg.max());
      });
}

std::vector<SnippetRun> Harness::run_adascale(Detector* det,
                                              ScaleRegressor* reg,
                                              const ScaleSet& sreg) {
  AdaScalePipeline pipeline(det, reg, &renderer_, dataset_.scale_policy(),
                            sreg, /*init_scale=*/600);
  return run_generic(
      [&] { pipeline.reset(); },
      [&](const Scene& scene, SnippetRun* run) {
        AdaFrameOutput out = pipeline.process(scene);
        run->frame_dets.push_back(to_reference(out.detections));
        run->frame_ms.push_back(out.total_ms());
        run->frame_scales.push_back(out.scale_used);
      });
}

std::vector<SnippetRun> Harness::run_oracle(Detector* det,
                                            const ScaleSet& sreg,
                                            const OptimalScaleConfig& ocfg) {
  const ScalePolicy& policy = dataset_.scale_policy();
  return run_generic(
      [] {},
      [&](const Scene& scene, SnippetRun* run) {
        const ScaleMetric m =
            compute_scale_metric(det, renderer_, policy, scene, sreg, ocfg);
        const Tensor image =
            renderer_.render_at_scale(scene, m.optimal_scale, policy);
        DetectionOutput out = det->detect(image);
        run->frame_dets.push_back(to_reference(out));
        run->frame_ms.push_back(out.forward_ms);
        run->frame_scales.push_back(m.optimal_scale);
      });
}

std::vector<SnippetRun> Harness::run_adascale_same_frame(Detector* det,
                                                         ScaleRegressor* reg,
                                                         const ScaleSet& sreg) {
  const ScalePolicy& policy = dataset_.scale_policy();
  int inherited = 600;
  return run_generic(
      [&] { inherited = 600; },
      [&](const Scene& scene, SnippetRun* run) {
        // First pass at the inherited scale to read the regressor...
        const Tensor probe = renderer_.render_at_scale(scene, inherited, policy);
        DetectionOutput first = det->detect(probe);
        const float t = reg->predict(det->features());
        const int chosen = decode_scale_target(t, inherited, sreg);
        // ...then re-detect this same frame at the decoded scale.
        const Tensor image = renderer_.render_at_scale(scene, chosen, policy);
        DetectionOutput out = det->detect(image);
        run->frame_dets.push_back(to_reference(out));
        run->frame_ms.push_back(first.forward_ms + reg->last_predict_ms() +
                                out.forward_ms);
        run->frame_scales.push_back(chosen);
        inherited = chosen;
      });
}

std::vector<SnippetRun> Harness::run_dff(Detector* det, ScaleRegressor* reg,
                                         const DffServingConfig& cfg,
                                         const ScaleSet& sreg) {
  AdaScalePipeline pipeline(det, reg, &renderer_, dataset_.scale_policy(),
                            sreg, /*init_scale=*/600);
  pipeline.set_dff(cfg);
  return run_generic(
      [&] { pipeline.reset(); },
      [&](const Scene& scene, SnippetRun* run) {
        const AdaFrameOutput out = pipeline.process(scene);
        run->frame_dets.push_back(to_reference(out.detections));
        run->frame_ms.push_back(out.total_ms());
        run->frame_scales.push_back(out.scale_used);
        run->frame_keys.push_back(out.dff_key);
      });
}

MethodRun Harness::evaluate(const std::string& label,
                            std::vector<SnippetRun> runs,
                            const SeqNmsConfig* seqnms) {
  MethodRun result;
  result.label = label;

  std::vector<std::string> names;
  for (const ClassSignature& c : dataset_.catalog().all())
    names.push_back(c.name);
  MapEvaluator evaluator(std::move(names));

  const auto& snippets = dataset_.val_snippets();
  double total_ms = 0.0;
  long frames = 0;
  double total_macs = 0.0;
  const ScalePolicy& policy = dataset_.scale_policy();
  Detector* macs_det = nullptr;
  if (!detectors_.empty()) macs_det = detectors_.begin()->second.get();

  for (std::size_t s = 0; s < runs.size(); ++s) {
    SnippetRun& run = runs[s];
    if (seqnms != nullptr) {
      Timer t;
      const SeqNmsReport report = seq_nms(&run.frame_dets, *seqnms);
      if (report.truncated())
        std::fprintf(stderr,
                     "harness: seq_nms hit max_iterations=%d on %d class(es) "
                     "(snippet %zu) — stranded boxes kept their original "
                     "scores; raise SeqNmsConfig::max_iterations if this "
                     "recurs\n",
                     seqnms->max_iterations, report.truncated_classes, s);
      // Seq-NMS cost amortized over the snippet's frames.
      const double per_frame =
          t.elapsed_ms() / std::max<std::size_t>(run.frame_dets.size(), 1);
      for (double& ms : run.frame_ms) ms += per_frame;
    }
    const Snippet& snip = snippets[s];
    for (std::size_t f = 0; f < run.frame_dets.size(); ++f) {
      const std::vector<GtBox> gts =
          scene_ground_truth(snip.frames[f], ref_h_, ref_w_);
      evaluator.add_frame(gts, run.frame_dets[f]);
      total_ms += run.frame_ms[f];
      result.used_scales.push_back(run.frame_scales[f]);
      if (macs_det != nullptr) {
        const int h = policy.render_h(run.frame_scales[f]);
        const int w = policy.render_w(run.frame_scales[f]);
        total_macs += static_cast<double>(macs_det->forward_macs(h, w));
      }
      ++frames;
    }
  }

  // TP/FP counting threshold 0.35: the OHEM-trained detector's calibrated
  // scores sit lower than a softmax-only one's; 0.5 would leave the Fig. 6
  // counters nearly empty.  AP/mAP are threshold-free and unaffected.
  result.eval = evaluator.compute(/*iou_threshold=*/0.5f,
                                  /*tp_fp_threshold=*/0.35f);
  result.mean_ms = frames > 0 ? total_ms / static_cast<double>(frames) : 0.0;
  result.fps = result.mean_ms > 0.0 ? 1000.0 / result.mean_ms : 0.0;
  result.mean_macs =
      frames > 0 ? total_macs / static_cast<double>(frames) : 0.0;
  return result;
}

std::string default_cache_dir() {
  if (const char* env = std::getenv("ADASCALE_CACHE_DIR"); env != nullptr)
    return env;
  return "model_cache";
}

Harness make_vid_harness(const std::string& cache_dir,
                         const HarnessSizes& sizes) {
  return Harness(
      Dataset::synth_vid(sizes.train_snippets, sizes.val_snippets, sizes.seed),
      cache_dir);
}

Harness make_ytbb_harness(const std::string& cache_dir,
                          const HarnessSizes& sizes) {
  return Harness(Dataset::synth_ytbb(sizes.train_snippets, sizes.val_snippets,
                                     sizes.seed ^ 0xBBULL),
                 cache_dir);
}

}  // namespace ada
