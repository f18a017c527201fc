// Concrete layers: Conv2d (with optional fused bias+ReLU epilogue), MaxPool2,
// ReLU, Linear, GlobalAvgPool, and a Sequential container.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/conv2d.h"
#include "util/rng.h"

namespace ada {

/// Reporting view of one layer's frozen INT8 state (tools/calibrate): the
/// calibrated input activation range, the derived per-tensor u8 qparams,
/// and the per-output-channel weight-scale spread.
struct QuantSummary {
  std::string layer;
  float act_lo = 0.0f, act_hi = 0.0f;
  QuantParams act;
  float wscale_min = 0.0f, wscale_max = 0.0f;
  int rows = 0, cols = 0;  ///< quantized weight matrix shape
};

/// Builds a QuantSummary from any layer exposing the quantization
/// accessors (Conv2dLayer, LinearLayer).
template <typename L>
QuantSummary summarize_quant(const L& l, std::string name) {
  QuantSummary s;
  s.layer = std::move(name);
  s.act_lo = l.act_lo();
  s.act_hi = l.act_hi();
  const QuantizedWeights& q = l.quantized_weights();
  s.act = q.act;
  s.rows = q.rows;
  s.cols = q.cols;
  if (!q.scale.empty()) {
    const auto [mn, mx] = std::minmax_element(q.scale.begin(), q.scale.end());
    s.wscale_min = *mn;
    s.wscale_max = *mx;
  }
  return s;
}

/// The per-layer quantization state machine shared by Conv2dLayer and
/// LinearLayer: calibration observation (RangeObserver), the frozen
/// activation range, and the INT8 weight tables.  Single-sources the
/// "may the INT8 path run" gate so the two layer types cannot diverge
/// on it.
struct LayerQuantState {
  bool calibrating = false;
  bool has_range = false;
  float lo = 0.0f, hi = 0.0f;  ///< frozen (clipped) input range
  RangeObserver obs;           ///< calibration statistics
  QuantizedWeights qw;         ///< INT8 tables; empty = not quantized

  bool quantized() const { return !qw.q.empty(); }

  /// True when forward() should take the INT8 kernel: frozen tables
  /// exist, the resolved backend asks for them, and the layer is neither
  /// calibrating (must observe fp32) nor training (fp32 weights are
  /// authoritative; gradients flow against the fp32 forward).
  bool use_int8(bool training, GemmBackend backend) const;

  void observe(const Tensor& x) { obs.observe(x.data(), x.size()); }

  /// Freezes INT8 tables from the observed statistics (percentile clip)
  /// or, lacking new observations, re-freezes from the stored range.
  /// Returns false when neither is available.
  bool freeze(const float* w, int rows, int cols);

  /// Freezes against an explicit range (clone transfer, tests).
  void freeze_with_range(const float* w, int rows, int cols, float range_lo,
                         float range_hi);
};

/// 2-D convolution layer with bias.  With fuse_relu the ReLU activation is
/// applied inside the GEMM write-out — bit-identical to a separate
/// ReluLayer, but inference makes no extra pass over the activation at all,
/// and training trades ReluLayer's input copy + ReLU pass for one output
/// copy (the backward mask source, kept only under set_training(true)).
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(int in_c, int out_c, int kernel, int stride, int pad,
              int dilation = 1, bool fuse_relu = false);

  void forward(const Tensor& x, Tensor* y) override;
  void backward(const Tensor& dy, Tensor* dx) override;
  void collect_params(std::vector<Param*>* out) override;
  /// Leaving training mode also releases the cached activation tensors, so
  /// a detector that trained at scale 600 does not pin tens of MB per layer
  /// (per stream clone) while serving inference.
  void set_training(bool training) override;
  void set_calibration(bool on) override;
  void set_policy(const ExecutionPolicy& policy) override {
    policy_ = policy;
  }
  void plan_forward(PlanShape* shape, ExecutionPlan* plan) const override;
  void forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) override;
  bool quantize() override;
  std::string name() const override {
    return fuse_relu_ ? "conv2d+relu" : "conv2d";
  }

  /// The kernel forward() would run right now, resolved from the layer's
  /// policy, quantization state, and training/calibration flags — the
  /// single resolution rule plan_forward() freezes into plans.
  KernelKind resolve_kernel() const;

  const ExecutionPolicy& policy() const { return policy_; }

  /// He-normal weight initialization, zero bias.
  void init_he(Rng* rng);

  /// Quantizes against an explicitly supplied input range instead of a
  /// calibration pass — how clones inherit a source layer's quantization
  /// (clone_detector / clone_regressor) and how tests pin exact qparams.
  void quantize_with_range(float lo, float hi);

  bool is_quantized() const { return quant_.quantized(); }
  bool has_act_range() const { return quant_.has_range; }
  float act_lo() const { return quant_.lo; }
  float act_hi() const { return quant_.hi; }
  /// Frozen INT8 state (empty until quantize()).
  const QuantizedWeights& quantized_weights() const { return quant_.qw; }

  /// Aliases this layer's weight/bias storage to `src`'s (see
  /// Layer::share_params_with); aborts unless `src` is a Conv2dLayer of
  /// identical geometry.
  void share_params_with(Layer* src) override;

  const ConvSpec& spec() const { return spec_; }
  bool fused_relu() const { return fuse_relu_; }
  Param& weight() { return *w_; }
  Param& bias() { return *b_; }

 private:
  /// Dispatches to the conv kernel `k` names (shared by the eager and
  /// planned forwards so they cannot diverge).
  void run_kernel(KernelKind k, const Tensor& x, Tensor* y);

  ConvSpec spec_;
  bool fuse_relu_ = false;
  bool training_ = true;        ///< default on: forward→backward just works
  bool backward_ready_ = false; ///< last forward ran in training mode
  ExecutionPolicy policy_;      ///< unpinned by default (env-following)
  LayerQuantState quant_;
  // shared_ptr-owned so weight-aliased clones (share_params_with) hold the
  // same Param objects: &weight() is identical across sharers, which is
  // what the aliasing tests assert pointer identity on.
  std::shared_ptr<Param> w_ = std::make_shared<Param>();
  std::shared_ptr<Param> b_ = std::make_shared<Param>();
  Tensor cached_x_;  ///< training only: input, for dW / dX
  Tensor cached_y_;  ///< fused training only: output, for the ReLU mask
  Tensor masked_dy_; ///< fused training only: dy ⊙ [y > 0] workspace
};

/// ReLU activation.
class ReluLayer : public Layer {
 public:
  void forward(const Tensor& x, Tensor* y) override;
  void backward(const Tensor& dy, Tensor* dx) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_x_;
};

/// 2x2 stride-2 max pooling.  The eager forward records the argmax that
/// backward routes gradients through; the planned forward (inference only)
/// computes the pooled values alone.
class MaxPool2Layer : public Layer {
 public:
  void forward(const Tensor& x, Tensor* y) override;
  void backward(const Tensor& dy, Tensor* dx) override;
  void plan_forward(PlanShape* shape, ExecutionPlan* plan) const override;
  void forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) override;
  std::string name() const override { return "maxpool2"; }

 private:
  bool backward_ready_ = false;  ///< last forward recorded argmax_ (eager)
  std::vector<int> argmax_;
  int in_n_ = 0, in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/// Global average pooling to 1x1.  Backward needs only the input *shape*,
/// so no activation is ever copied (this sits on the scale regressor's
/// per-frame predict path).
class GlobalAvgPoolLayer : public Layer {
 public:
  void forward(const Tensor& x, Tensor* y) override;
  void backward(const Tensor& dy, Tensor* dx) override;
  void plan_forward(PlanShape* shape, ExecutionPlan* plan) const override;
  std::string name() const override { return "gap"; }

 private:
  int in_n_ = 0, in_c_ = 0, in_h_ = 0, in_w_ = 0;
};

/// Fully-connected layer.
class LinearLayer : public Layer {
 public:
  LinearLayer(int in, int out);

  void forward(const Tensor& x, Tensor* y) override;
  void backward(const Tensor& dy, Tensor* dx) override;
  void collect_params(std::vector<Param*>* out) override;
  /// Like Conv2dLayer, the training hint gates the INT8 path: a training
  /// forward must run fp32 so backward() sees gradients of the weights it
  /// actually updates.  (Unlike Conv2dLayer there is no backward state to
  /// release — the input cache is kept either way.)
  void set_training(bool training) override { training_ = training; }
  void set_calibration(bool on) override;
  void set_policy(const ExecutionPolicy& policy) override {
    policy_ = policy;
  }
  void plan_forward(PlanShape* shape, ExecutionPlan* plan) const override;
  void forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) override;
  bool quantize() override;
  std::string name() const override { return "linear"; }

  /// See Conv2dLayer::resolve_kernel.
  KernelKind resolve_kernel() const;

  const ExecutionPolicy& policy() const { return policy_; }

  void init_he(Rng* rng);

  /// See Conv2dLayer::quantize_with_range.
  void quantize_with_range(float lo, float hi);

  bool is_quantized() const { return quant_.quantized(); }
  bool has_act_range() const { return quant_.has_range; }
  float act_lo() const { return quant_.lo; }
  float act_hi() const { return quant_.hi; }
  const QuantizedWeights& quantized_weights() const { return quant_.qw; }

  /// See Conv2dLayer::share_params_with.
  void share_params_with(Layer* src) override;

  Param& weight() { return *w_; }
  Param& bias() { return *b_; }

 private:
  /// Shared kernel dispatch for the eager and planned forwards.
  void run_kernel(KernelKind k, const Tensor& x, Tensor* y);

  bool training_ = true;  ///< default on: forward→backward just works
  bool backward_ready_ = false;  ///< last forward cached its input (eager)
  ExecutionPolicy policy_;  ///< unpinned by default (env-following)
  LayerQuantState quant_;
  // shared_ptr-owned for weight aliasing; see Conv2dLayer.
  std::shared_ptr<Param> w_ = std::make_shared<Param>();
  std::shared_ptr<Param> b_ = std::make_shared<Param>();
  Tensor cached_x_;
};

/// Runs layers in order; owns them.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Adds a layer; returns a borrowed pointer for configuration.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void forward(const Tensor& x, Tensor* y) override;
  void backward(const Tensor& dy, Tensor* dx) override;
  void collect_params(std::vector<Param*>* out) override;
  void set_training(bool training) override {
    for (auto& l : layers_) l->set_training(training);
  }
  void set_calibration(bool on) override {
    for (auto& l : layers_) l->set_calibration(on);
  }
  void set_policy(const ExecutionPolicy& policy) override {
    for (auto& l : layers_) l->set_policy(policy);
  }
  /// Pairwise recursion; aborts unless `src` is a Sequential of the same
  /// length (children check their own types/shapes).
  void share_params_with(Layer* src) override;
  void plan_forward(PlanShape* shape, ExecutionPlan* plan) const override {
    for (const auto& l : layers_) l->plan_forward(shape, plan);
  }
  /// Planned inference forward: routes activations through per-layer
  /// reused buffers instead of the acts_ chain the training forward
  /// keeps, so a steady-state planned forward makes no input/output
  /// tensor copies and no allocations (each buffer's shape is stable
  /// across calls at a given scale).  Same kernels in the same order as
  /// forward() — bit-identical outputs.
  void forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) override;
  /// Quantizes every child that can be; true if at least one was.
  bool quantize() override {
    bool any = false;
    for (auto& l : layers_) any = l->quantize() || any;
    return any;
  }
  std::string name() const override { return "sequential"; }

  std::size_t size() const { return layers_.size(); }
  Layer* at(std::size_t i) { return layers_[i].get(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Intermediate activations kept for the backward pass.
  std::vector<Tensor> acts_;
  std::vector<Tensor> grads_;
  // Planned-forward intermediate buffers, one per layer: buffer i always
  // holds layer i's output shape, so steady-state planned forwards never
  // reallocate (a shared ping-pong pair would reshape — and so reallocate
  // — at almost every layer).
  std::vector<Tensor> planned_outs_;
};

}  // namespace ada
