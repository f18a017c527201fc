// Per-stream mutable serving state — the other half of the shared-weights /
// per-stream-context split.
//
// Serving at thousands-of-streams scale needs model state cut in two:
//
//   * shared, immutable after load: weights, quantization tables, execution
//     policies and cached ExecutionPlans.  One master copy, aliased by the
//     weight-sharing contexts of every policy pool (runtime/stream_table.h).
//
//   * per-stream, tiny, mutable: everything a stream's past frames imprint
//     on its future ones.  That is this struct — the Algorithm-1 target
//     scale and the DFF temporal-reuse cache (key-frame deep features + the
//     grayscale key at feature resolution).
//
// AdaScalePipeline owns exactly one StreamContext; MultiStreamRunner holds
// one pipeline (hence one context) per stream; pooled model contexts hold
// NO StreamContext — they are pure compute resources (model clones), which
// is what makes any batch composition bit-identical to serial execution.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tensor/tensor.h"
#include "video/optical_flow.h"

namespace ada {

/// Keyframe/warp configuration: the one Deep Feature Flow implementation
/// (AdaScalePipeline::set_dff), used by serving and the offline harness
/// alike.  Defaults give the paper's AdaScale+DFF combination: adaptive
/// keyframing from the flow residual, with AdaScale's own scale signal
/// doubling as a scene-change detector.
struct DffServingConfig {
  /// How key frames are chosen.
  enum class Keyframe {
    /// Every `key_interval`-th frame is a key (Zhu et al. CVPR'17 schedule;
    /// the Fig. 7 DFF rows).
    kFixedInterval,
    /// Refresh when flow propagation degrades (warp residual >
    /// `residual_threshold`), when the regressed scale jumps
    /// (`scale_jump_frac` — the AdaScale-as-scene-change-detector trigger),
    /// or unconditionally after `max_interval` warp frames.
    kAdaptive,
  };
  Keyframe policy = Keyframe::kAdaptive;

  /// kFixedInterval: the key period.
  int key_interval = 10;

  /// kAdaptive: refresh when the mean |warped key gray - current gray|
  /// exceeds this ([0,1] grayscale units; lower = more keys).
  float residual_threshold = 0.04f;
  /// kAdaptive: hard cap on the propagation span — refresh after this many
  /// consecutive warp frames even if the residual stays quiet.  The default
  /// of 1 alternates key/warp frames: on the synthetic workload (objects
  /// rotate and zoom, which translation-only flow cannot model) one frame of
  /// feature staleness is nearly free while two or more cost several mAP,
  /// and alternating already halves the backbone load.  Raise it for
  /// quieter streams where the residual/scale-jump triggers suffice.
  int max_interval = 1;
  /// kAdaptive + adascale: on warp frames the (cheap) scale regressor runs
  /// on the warped features; if its decoded scale differs from the current
  /// one by more than this fraction, the scene has changed enough that the
  /// cached features are stale — force a key frame at the freshly regressed
  /// scale.  0 disables the trigger.  The default is deliberately loose:
  /// the regression is read off *warped* (approximate) features, so a tight
  /// threshold fires on warp noise and redirects the scale trajectory
  /// through unreliable decodes (measurably costs mAP); 0.5 only fires on
  /// genuine scene changes.
  float scale_jump_frac = 0.5f;

  /// With false, the scale stays fixed at the pipeline's init scale (plain
  /// DFF); the regressor never runs.  With true, the regressor runs on key
  /// frames and its decoded scale takes effect at the *next* key frame
  /// (the interval keeps one scale so warped features match the cached
  /// feature geometry), plus the scale_jump_frac trigger above.
  bool adascale = true;

  FlowConfig flow;

  /// Fixed design, not knobs; constants so servebench's replay, which
  /// reads both names, compiles unchanged.  Flow runs on grayscale from a
  /// dedicated render at this tiny scale, resized to the feature grid:
  /// warp frames never render at the working scale, and the tiny render is
  /// less aliased than point-sampling a full render ~16x down.
  static constexpr int flow_render_scale = 96;
  /// Per-frame flow steps are composed into the key->current field
  /// (compose_flow) rather than matched key->current directly, which
  /// degrades once cumulative motion leaves the search radius.
  static constexpr bool incremental_flow = true;

  /// Aborts loudly on nonsensical values instead of silently clamping or
  /// misbehaving (called by AdaScalePipeline::set_dff).
  void validate() const {
    auto fail = [](const char* what) {
      std::fprintf(stderr, "DffServingConfig: %s\n", what);
      std::abort();
    };
    if (key_interval < 1) fail("key_interval must be >= 1");
    if (max_interval < 1) fail("max_interval must be >= 1");
    if (!(residual_threshold >= 0.0f) || !std::isfinite(residual_threshold))
      fail("residual_threshold must be finite and >= 0");
    if (!(scale_jump_frac >= 0.0f) || !std::isfinite(scale_jump_frac))
      fail("scale_jump_frac must be finite and >= 0 (0 disables)");
    // A negative radius makes block matching return an all-zero field, so
    // every warp frame would silently reuse unshifted key features.
    if (flow.search_radius < 0) fail("flow.search_radius must be >= 0");
    if (flow.patch_radius < 0) fail("flow.patch_radius must be >= 0");
  }
};

/// DFF temporal-reuse state of one stream.
struct DffStreamState {
  bool has_key = false;    ///< a key frame has been cached since reset
  int frame_index = 0;     ///< frames processed since reset (fixed-mode phase)
  int since_key = 0;       ///< consecutive warp frames since the current key
  int current_scale = 0;   ///< scale of the cached key (and all its warps)
  int pending_scale = 0;   ///< regressed scale waiting for the next key
  Tensor key_features;     ///< cached deep features of the key frame
  Tensor key_gray;         ///< key frame grayscale at feature resolution
  Tensor prev_gray;        ///< previous frame grayscale at feature resolution
  Tensor acc_flow_y;       ///< composed key->previous flow
  Tensor acc_flow_x;
};

/// Everything mutable one serving stream carries between frames.
struct StreamContext {
  int target_scale = 600;  ///< Algorithm-1 scale state (non-DFF mode)
  DffStreamState dff;

  /// Snippet-boundary reset: Algorithm 1 restarts at `init_scale` and the
  /// DFF cache drops (next frame is a key frame).
  void reset(int init_scale) {
    target_scale = init_scale;
    dff = DffStreamState{};
    dff.current_scale = init_scale;
    dff.pending_scale = init_scale;
  }
};

}  // namespace ada
