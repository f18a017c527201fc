// Algorithm 1: deploying AdaScale on a video stream.
//
//   targetScale = 600                     // initialize
//   for each frame:
//     image = resize(frame, targetScale)
//     boxes, scores, t = detector.detect(image)   // regress Eq. (3)'s t
//     targetScale = decode(t, base_size) ; clip ; round
//
// The current frame's deep features predict the *next* frame's scale — the
// temporal-consistency assumption the paper's results justify empirically.
//
// With a DffServingConfig (set_dff) the pipeline additionally reuses
// temporal compute à la Deep Feature Flow: the full backbone runs only on
// key frames, whose deep features are cached in the per-stream
// StreamContext; intermediate frames estimate a cheap optical flow, warp
// the cached features along it, and run only the detection heads.  This is
// the repo's one DFF implementation — serving and the offline harness
// (Harness::run_dff, the Fig. 7 benches) both drive it — and the paper's
// Fig. 7 headline combination (AdaScale + DFF): the scale regressor runs on
// key frames (decoded scale takes effect at the next key, so warped
// features always match the cached geometry) and, under the adaptive
// policy, doubles as a scene-change detector on warp frames (a regressed
// scale jump forces a key frame).  Plain DFF is `adascale = false`.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "adascale/scale_regressor.h"
#include "adascale/scale_set.h"
#include "adascale/scale_target.h"
#include "data/renderer.h"
#include "detection/detector.h"
#include "runtime/stream_context.h"

namespace ada {

/// Per-frame output of the adaptive pipeline.
struct AdaFrameOutput {
  DetectionOutput detections;
  int scale_used = 0;       ///< nominal scale this frame was processed at
  int next_scale = 0;       ///< scale the next frame (DFF: next key) will use
  float regressed_t = 0.0f; ///< raw regressor output (0 if it did not run)
  double detect_ms = 0.0;   ///< backbone+head wall-clock
  double regressor_ms = 0.0;
  // DFF-mode fields (dff == false on the per-frame Algorithm-1 path).
  bool dff = false;          ///< frame was served by the keyframe/warp branch
  bool dff_key = false;      ///< this frame refreshed the feature cache
  float warp_residual = 0.0f;///< adaptive policy: mean warp residual measured
                             ///< on this frame (also set on residual-forced
                             ///< keys — it is what triggered them)
  double flow_ms = 0.0;      ///< flow estimation + feature warp wall-clock

  double total_ms() const { return detect_ms + regressor_ms + flow_ms; }
};

/// A pool of interchangeable detector/regressor compute contexts the
/// pipeline can borrow per model touch instead of owning a dedicated pair.
/// Contexts are weight-aliased clones (clone_detector_shared /
/// clone_regressor_shared) of one master copy, so WHICH context serves a
/// frame cannot affect the bits — only the per-context scratch
/// (activations, cached features) differs, and the pipeline never reads
/// scratch across leases.  acquire() may block until a context frees up;
/// release() must be called with the exact Lease acquire() returned.  The
/// stream-state table (runtime/stream_table.h) implements this to serve
/// 1k+ streams from a handful of resident contexts.
class ModelPool {
 public:
  struct Lease {
    Detector* detector = nullptr;
    ScaleRegressor* regressor = nullptr;
    int slot = -1;  ///< pool-private identifier, opaque to the pipeline
  };

  virtual ~ModelPool() = default;
  virtual Lease acquire() = 0;
  virtual void release(const Lease& lease) = 0;
};

/// Stateful Algorithm-1 runner.  Call reset() at each new video snippet.
///
/// With snap_to_set the decoded target scale is quantized to the nearest
/// member of `sreg` (ties to the larger, accuracy-conservative scale).
/// This is the serving-side shape-bucketing knob: concurrent streams can
/// only share a batched backbone forward when their rendered frames have
/// identical dimensions, and the raw Algorithm-1 decode produces arbitrary
/// integer scales that almost never coincide.  Snapping trades a bounded
/// scale perturbation (≤ half the gap between set members) for dense batch
/// buckets; it applies identically in serial and batched execution, so the
/// bit-equality contract between them is unaffected.
///
/// All cross-frame mutable state lives in one StreamContext (the
/// per-stream half of the shared-weights / per-stream-state split —
/// runtime/stream_context.h); the detector/regressor models are treated as
/// immutable shared weights at serving time.
class AdaScalePipeline {
 public:
  AdaScalePipeline(Detector* detector, ScaleRegressor* regressor,
                   const Renderer* renderer, const ScalePolicy& policy,
                   const ScaleSet& sreg, int init_scale = 600,
                   bool snap_to_set = false)
      : detector_(detector),
        regressor_(regressor),
        renderer_(renderer),
        policy_(policy),
        sreg_(sreg),
        init_scale_(init_scale),
        snap_to_set_(snap_to_set) {
    if (detector_ == nullptr || regressor_ == nullptr || renderer_ == nullptr ||
        init_scale_ <= 0 || sreg_.scales.empty()) {
      std::fprintf(stderr,
                   "AdaScalePipeline: invalid construction (null models/"
                   "renderer, non-positive init_scale, or empty scale set)\n");
      std::abort();
    }
    ctx_.reset(init_scale_);
  }

  /// Re-initializes the per-stream context for a new snippet (Algorithm 1
  /// restarts every video at 600; the DFF cache drops, so the next frame is
  /// a key frame).
  void reset() { ctx_.reset(init_scale_); }

  int current_scale() const {
    return dff_enabled_ ? ctx_.dff.current_scale : ctx_.target_scale;
  }

  /// Enables DFF temporal reuse with the given configuration and resets the
  /// stream context (the cached features of any previous mode are invalid).
  void set_dff(const DffServingConfig& cfg);

  /// Overload-degradation seam: caps the target scale at `cap` (0 lifts the
  /// cap).  While capped, the scale this pipeline serves is
  /// sreg.nearest(min(scale, cap)) — snapped onto the scale set so capped
  /// streams keep landing in shared batch buckets (runtime/
  /// overload_controller.h walks this knob).  Takes effect from the next
  /// frame (next key frame in DFF mode); lifting it lets Algorithm 1
  /// regress back up naturally.
  void set_scale_cap(int cap) { scale_cap_ = cap; }
  int scale_cap() const { return scale_cap_; }

  bool dff_enabled() const { return dff_enabled_; }
  const DffServingConfig& dff_config() const { return dff_; }

  /// The per-stream mutable state (inspection/tests).
  const StreamContext& context() const { return ctx_; }

  /// A frame between the two halves of serving.  The first half (stage)
  /// either finished it — a DFF warp frame, served on warped features — or
  /// rendered the image the backbone still has to run on (serve_backbone).
  struct StagedFrame {
    AdaScalePipeline* pipeline = nullptr;  ///< the stream that staged it
    AdaFrameOutput out;           ///< complete once !needs_backbone
    bool needs_backbone = false;
    Tensor image;                 ///< rendered at out.scale_used
    Tensor flow_gray;             ///< DFF key frames: the tiny flow render
  };

  /// Processes one frame: detect at the current target scale, then update
  /// the target scale from the regressed relative scale.  In DFF mode,
  /// key frames run the full backbone and refresh the feature cache; warp
  /// frames skip the backbone entirely.  This is stage() followed by
  /// serve_backbone() on the frame alone.
  AdaFrameOutput process(const Scene& frame);

  /// The first half of a frame: applies the scale cap and renders; in DFF
  /// mode it also runs flow, the residual gate and the scale-jump trigger,
  /// and finishes a warp frame outright.  It holds no context lease on
  /// return, so a staged frame can wait for batch-mates without starving
  /// the pool.
  StagedFrame stage(const Scene& frame);

  /// Serves the backbone of `n` staged frames that share a pool (or, with
  /// no pool bound, one pipeline) and an image size: one lease, one
  /// detect_batch over the images, one predict_batch on its features where
  /// a frame's mode runs the regressor, then each frame's own second half
  /// (a DFF key caches its features; the scale target is decoded and the
  /// pending scale set).  Batched kernels are bitwise the single-image
  /// ones, so the bytes do not depend on `n`; detect_ms and regressor_ms
  /// are the batch's time amortized per frame.
  static void serve_backbone(StagedFrame* const* frames, int n);

  /// Routes all model access through `pool` from the next frame on (null
  /// unbinds, restoring the constructor-supplied models).  Each half of a
  /// frame leases a context at its first model touch and returns it when
  /// the half ends, so a staged frame never holds one.  The constructor-
  /// supplied detector/regressor are untouched while a pool is bound — they
  /// can be the master weight copies the pool's contexts alias.
  void bind_pool(ModelPool* pool) { pool_ = pool; }
  ModelPool* pool() const { return pool_; }

 private:
  /// One half-frame's scoped model access; defined in pipeline.cpp.
  /// Lazily acquires from pool_ (or passes through to the owned models)
  /// and releases on destruction.
  struct ModelLease;

  /// stage() in DFF mode: the keyframe/warp decision and the warp frame.
  StagedFrame stage_dff(const Scene& frame);

  /// The second half of a frame serve_backbone ran as image `i` of its
  /// batch: `dets` and `t` are that image's detections and regressed t,
  /// `features` the batch's deep features.
  void finish(StagedFrame* f, DetectionOutput dets, float t,
              double regressor_ms, const Tensor& features, int i);

  /// Whether a backbone frame of this pipeline regresses the next scale
  /// (always, except on plain-DFF key frames).
  bool regresses_on_backbone() const { return !dff_enabled_ || dff_.adascale; }

  /// Grayscale flow source for `frame`: a dedicated render at
  /// DffServingConfig::flow_render_scale (callers resize it to the feature
  /// grid).
  Tensor flow_gray(const Scene& frame) const;

  /// `s` clamped under the overload scale cap (identity when uncapped).
  int capped(int s) const;

  Detector* detector_;
  ScaleRegressor* regressor_;
  ModelPool* pool_ = nullptr;  ///< when set, frames lease contexts instead
  const Renderer* renderer_;
  ScalePolicy policy_;
  ScaleSet sreg_;
  int init_scale_;
  bool snap_to_set_;
  int scale_cap_ = 0;  ///< 0 = uncapped (see set_scale_cap)
  bool dff_enabled_ = false;
  DffServingConfig dff_;
  StreamContext ctx_;
};

}  // namespace ada
