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
#include <functional>

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

  /// Processes one frame: detect at the current target scale, then update
  /// the target scale from the regressed relative scale.  In DFF mode,
  /// key frames run the full backbone and refresh the feature cache; warp
  /// frames skip the backbone entirely.
  AdaFrameOutput process(const Scene& frame);

  /// What a detection backend returns for one rendered frame — detections
  /// plus the regressed relative scale of that frame's deep features.
  struct DetectResult {
    DetectionOutput detections;
    float regressed_t = 0.0f;
    double detect_ms = 0.0;
    double regressor_ms = 0.0;
    /// The frame's deep features (backbone output).  Only populated when
    /// the backend runs in feature-returning mode (DFF key frames served
    /// through a BatchScheduler with features_only set); empty otherwise.
    Tensor features;
  };

  /// Pluggable detection backend: receives the frame rendered at the
  /// current target scale, returns detections + regressed t.  This is how
  /// the runtime layer routes frames through a cross-stream BatchScheduler
  /// without the pipeline depending on it; results must match what the
  /// pipeline's own detector/regressor would produce for the scale
  /// trajectory to stay bit-identical to process().
  using DetectBackend = std::function<DetectResult(Tensor image)>;

  /// process(), but detection runs through `backend` instead of the owned
  /// detector/regressor.  Scale state updates identically.  In DFF mode
  /// only key frames reach the backend (which must return features —
  /// BatchSchedulerConfig::features_only); warp frames never leave the
  /// stream: flow, warp, and heads all run on the stream's own models.
  AdaFrameOutput process_via(const Scene& frame, const DetectBackend& backend);

  /// Routes all model access through `pool` from the next frame on (null
  /// unbinds, restoring the constructor-supplied models).  Leases are
  /// acquired lazily per frame at the first model touch and released before
  /// any blocking backend call, so a pipeline never holds a pooled context
  /// while parked in a BatchScheduler queue.  The constructor-supplied
  /// detector/regressor are untouched while a pool is bound — they can be
  /// the master weight copies the pool's contexts alias.
  void bind_pool(ModelPool* pool) { pool_ = pool; }
  ModelPool* pool() const { return pool_; }

 private:
  /// One frame's scoped model access; defined in pipeline.cpp.  Lazily
  /// acquires from pool_ (or passes through to the owned models) and
  /// releases on destruction or explicitly around blocking calls.
  struct ModelLease;

  /// The keyframe/warp branch shared by process() / process_via().
  /// `backend` is null for owned-model execution.
  AdaFrameOutput process_dff(const Scene& frame, const DetectBackend* backend);

  /// Runs the full backbone on `image` (leased detector or backend), caches
  /// key features + grayscale into the context, detects on the cached
  /// features, and (when dff_.adascale) regresses the next key's scale.
  /// `frame` supplies the grayscale flow source (tiny render).
  void refresh_key(const Scene& frame, Tensor image,
                   const DetectBackend* backend, AdaFrameOutput* out,
                   ModelLease* m);

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
