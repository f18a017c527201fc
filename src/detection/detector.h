// Single-stage convolutional object detector.
//
// This is the reproduction's stand-in for the paper's R-FCN/ResNet-101: a
// small backbone (3 conv/pool stages, output stride 8) with dense per-anchor
// classification and box-regression heads.  What matters for AdaScale is
// preserved exactly:
//   * training loss has the Eq. (1) form: softmax CE + smooth-L1 on matched
//     foreground anchors;
//   * the backbone's last feature map ("deep features") feeds the scale
//     regressor, as in Fig. 4 of the paper;
//   * anchors span a bounded size range, so scale choice matters;
//   * inference applies NMS(0.3) and keeps the top-300 boxes (Sec. 4.2).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "detection/anchors.h"
#include "detection/assign.h"
#include "nn/layers.h"
#include "nn/sgd.h"
#include "runtime/exec_plan.h"
#include "runtime/exec_policy.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ada {

/// One output detection, self-contained enough for the AdaScale per-box loss
/// metric (Sec. 3.1) to be computed without re-running the network.
struct Detection {
  Box box;                     ///< decoded, clipped to the image
  int class_id = 0;            ///< 0-based foreground class
  float score = 0.0f;          ///< max foreground softmax probability
  std::vector<float> probs;    ///< full softmax (index 0 = background)
  std::array<float, 4> delta{0, 0, 0, 0};  ///< raw regression output
  Box anchor;                  ///< the anchor this detection came from
};

/// Full per-image inference output.
struct DetectionOutput {
  std::vector<Detection> detections;  ///< NMS'd, score-sorted, top-K
  int image_h = 0, image_w = 0;       ///< resolution the image was processed at
  double forward_ms = 0.0;            ///< backbone+head wall-clock time
};

/// Architecture and inference hyperparameters.
struct DetectorConfig {
  int num_classes = 30;       ///< foreground classes (background is implicit)
  int c1 = 16, c2 = 32, c3 = 48;  ///< backbone stage widths
  AnchorConfig anchors;
  float nms_threshold = 0.3f;   ///< paper Sec. 4.2
  int top_k = 300;              ///< paper Sec. 4.2
  float score_threshold = 0.05f;  ///< pre-NMS candidate cutoff
  float reg_loss_weight = 1.0f;   ///< lambda in Eq. (1)
  int max_fg_samples = 48;
  int bg_per_fg = 3;
  int min_bg_samples = 16;

  std::string fingerprint() const;
};

/// Trainable detector.  Not copyable (owns layer state); movable via
/// unique_ptr at call sites.
class Detector {
 public:
  explicit Detector(const DetectorConfig& cfg, Rng* rng);

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  const DetectorConfig& config() const { return cfg_; }

  /// Runs backbone + heads. Returns the deep feature map (backbone output)
  /// by const reference valid until the next forward.
  const Tensor& forward(const Tensor& image);

  /// Full inference: forward, decode, NMS, top-K.
  DetectionOutput detect(const Tensor& image);

  /// Batched inference over an (N,3,H,W) tensor of frames rendered at the
  /// same scale.  The backbone and heads run ONCE for the whole batch — one
  /// sgemm per conv layer with the images concatenated along the GEMM N axis
  /// — and the per-image decode/NMS work fans out over parallel_for.
  /// Element i is bit-identical to detect(images.image(i)); forward_ms on
  /// each output is the batch wall-clock amortized per image.  After the
  /// call features() holds the batched (N,C,fh,fw) deep-feature map (input
  /// to ScaleRegressor::predict_batch).
  std::vector<DetectionOutput> detect_batch(const Tensor& images);

  /// Inference reusing an externally produced feature map (the DFF path:
  /// features warped from a key frame instead of computed by the backbone).
  DetectionOutput detect_from_features(const Tensor& features, int image_h,
                                       int image_w);

  /// Post-training quantization: runs one fp32 forward per calibration
  /// image with activation-range observation on, then freezes INT8 state
  /// (per-output-channel s8 weights + per-tensor u8 activation qparams,
  /// tensor/qgemm.h) into every backbone conv and both heads.  After this,
  /// detect()/detect_batch() run fully INT8 whenever ADASCALE_GEMM=int8;
  /// other backends and training keep using the fp32 weights (which stay
  /// authoritative — re-quantize after further training).
  void quantize(const std::vector<Tensor>& calibration_images);

  /// True once quantize() has frozen INT8 state.
  bool quantized() const { return cls_head_.is_quantized(); }

  /// Sets this detector's execution policy (backend / precision —
  /// runtime/exec_policy.h), propagating it to every layer and discarding
  /// cached plans.  Policies are per-model state: an int8 detector and an
  /// fp32 regressor compose into mixed-precision serving with no global
  /// switch, and clone_detector copies the policy onto stream/context
  /// clones.  Resolution order: explicit (pinned) policy > env default.
  void set_execution_policy(const ExecutionPolicy& policy);

  /// The policy this detector resolves kernels from.
  const ExecutionPolicy& execution_policy() const { return policy_; }

  /// The cached ahead-of-time plan for an (n, img_h, img_w) input under
  /// the current resolved backend — built lazily on first use (the
  /// inference path calls this per forward; steady state is one map
  /// lookup).  Public as the inspection/tuning seam: tools/plan_dump
  /// prints these.  Invalidated by quantize(), training re-entry, and
  /// policy changes.
  const ExecutionPlan& plan_for(int n, int img_h, int img_w);

  /// Number of plans currently cached (tests assert build-once/reuse and
  /// invalidation through this).
  std::size_t cached_plan_count() const { return plans_->size(); }

  /// Re-points this detector's parameter storage and plan cache at `src`'s
  /// (the shared-immutable-weights serving split): parameters() returns
  /// the SAME Param objects as src's afterwards, and plans built by either
  /// instance serve both.  Per-instance state (quantized tables,
  /// activation caches, execution policy) stays per-detector, so sharers
  /// may pin different policies.  Used by clone_detector_shared; sharers
  /// must not train.
  void share_storage_with(Detector* src);

  /// Per-layer calibration summaries of the quantized layers, in forward
  /// order (empty before quantize()).  Reporting only — tools/calibrate.
  std::vector<QuantSummary> quant_summaries();

  /// Copies `src`'s quantization state (calibrated activation ranges) onto
  /// this detector's structurally identical layers and re-freezes INT8
  /// weights from this detector's (already copied) fp32 parameters.  Used
  /// by clone_detector so every serving context serves INT8 exactly like
  /// the original.
  void quantize_like(Detector* src);

  /// One SGD step on a single image; returns the Eq. (1) loss value.
  /// `gts` must be in the image's pixel coordinates.
  float train_step(const Tensor& image, const std::vector<GtBox>& gts,
                   Sgd* opt, Rng* rng);

  /// Evaluation-only loss (no gradients); used by tests.
  float compute_loss(const Tensor& image, const std::vector<GtBox>& gts,
                     Rng* rng);

  /// Deep-feature channel count (input to the scale regressor).
  int feature_channels() const { return cfg_.c3; }

  /// Deep features of the most recent forward()/detect() call.
  const Tensor& features() const { return features_; }

  /// All learnable parameters (for optimizers and serialization).
  std::vector<Param*> parameters();

  /// One convolution of the forward stack with the input resolution it
  /// runs at.
  struct ConvStackEntry {
    const char* name;
    ConvSpec spec;
    int in_h = 0, in_w = 0;
  };

  /// The convolutions forward() executes at the given image size, in
  /// execution order — the single source of truth for forward_macs and for
  /// perf tooling (tools/bench_report) so shape lists cannot drift from
  /// the real architecture.
  std::vector<ConvStackEntry> conv_stack(int img_h, int img_w) const;

  /// Multiply-accumulate count of one forward at the given image size;
  /// proportional to the ideal runtime at that scale.
  long long forward_macs(int img_h, int img_w) const;

 private:
  struct HeadOutputs {
    Tensor cls;  ///< (1, A*(K+1), fh, fw)
    Tensor reg;  ///< (1, A*4, fh, fw)
  };

  /// Shared loss computation; when train is true, also backprops and expects
  /// the caller to step the optimizer.
  float loss_impl(const Tensor& image, const std::vector<GtBox>& gts,
                  Rng* rng, bool train);

  /// Decodes image `n` of the current head outputs: decode_candidates,
  /// per-class NMS, top-K.  Shared by the single-image and batched paths so
  /// they cannot drift.
  DetectionOutput decode_image(int n, int image_h, int image_w,
                               const std::vector<Box>& anchors) const;

  void invalidate_plans() { plans_->clear(); }

  DetectorConfig cfg_;
  Sequential backbone_;
  Conv2dLayer cls_head_;
  Conv2dLayer reg_head_;
  ExecutionPolicy policy_;  ///< unpinned by default (env-following)
  bool use_plans_ = true;   ///< off during training/calibration forwards
  /// Plans keyed by (n, h, w, resolved backend) — the backend key is what
  /// lets an *unpinned* policy keep following env-default flips without
  /// serving stale kernel choices.  shared_ptr-owned so weight-aliased
  /// clones share one cache (runtime/exec_plan.h PlanCache).
  std::shared_ptr<PlanCache> plans_ = std::make_shared<PlanCache>();
  Tensor features_;  ///< last backbone output
  HeadOutputs heads_;
};

/// Candidate detections of image `n` of the detection head outputs, the
/// scan Detector::decode_image runs before NMS.  `cls` is (N, A*(K+1), fh,
/// fw) with K = `num_classes`, `reg` is (N, A*4, fh, fw) and `anchors` is
/// the fh x fw generate_anchors grid.  Each anchor whose best foreground
/// softmax probability reaches `score_threshold` yields one Detection, its
/// box decoded and clipped to image_h x image_w; boxes under 1 px are
/// dropped.  Order is cell-major, anchor-minor.
///
/// A channel-major sweep first finds each anchor's maximum foreground
/// logit.  An anchor whose background logit leads it by more than
/// ln(1/score_threshold) + 0.01 skips the softmax: its best probability is
/// at most exp(max_fg - bg), below the threshold.  The result is byte-
/// identical to a softmax over every anchor.
std::vector<Detection> decode_candidates(const Tensor& cls, const Tensor& reg,
                                         int n, int num_classes,
                                         const std::vector<Box>& anchors,
                                         float score_threshold, int image_h,
                                         int image_w);

/// Deep-copies a detector: same architecture/config, parameter values copied
/// from `src`.  Every concurrent user needs its own instance because
/// Detector caches activations between forward and detect.
std::unique_ptr<Detector> clone_detector(Detector* src);

/// Clones a detector for pooled serving: per-instance state (activation
/// caches, quantized tables, policy) is its own, but parameter storage and
/// the plan cache are ALIASED to `src`'s via share_storage_with — N serving
/// contexts hold one resident fp32 weight copy.  Sharers must not train.
std::unique_ptr<Detector> clone_detector_shared(Detector* src);

}  // namespace ada
