#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tensor/gemm.h"

#include "tensor/linear.h"
#include "tensor/ops.h"

namespace ada {

// ------------------------------------------------------- LayerQuantState

bool LayerQuantState::use_int8(bool training, GemmBackend backend) const {
  return quantized() && !training && !calibrating &&
         backend == GemmBackend::kInt8;
}

bool LayerQuantState::freeze(const float* w, int rows, int cols) {
  if (obs.seen()) {
    // Percentile clip: saturate the rare outlier tail so the u8 step
    // covers the dense activation bulk (tensor/qgemm.h).  The default
    // fraction keeps the full range — on this detector the outliers are
    // the informative activations.
    hi = obs.percentile_hi(calibration_clip_fraction());
    lo = std::max(obs.min(), -hi);
    has_range = true;
  }
  if (!has_range) return false;
  freeze_with_range(w, rows, cols, lo, hi);
  return true;
}

void LayerQuantState::freeze_with_range(const float* w, int rows, int cols,
                                        float range_lo, float range_hi) {
  lo = range_lo;
  hi = range_hi;
  has_range = true;
  qw = quantize_weights(w, rows, cols, choose_qparams(lo, hi));
}

// ---------------------------------------------------------------- Conv2d
Conv2dLayer::Conv2dLayer(int in_c, int out_c, int kernel, int stride, int pad,
                         int dilation, bool fuse_relu)
    : fuse_relu_(fuse_relu) {
  spec_ = ConvSpec{in_c, out_c, kernel, stride, pad, dilation};
  w_->value = Tensor(out_c, in_c, kernel, kernel);
  w_->grad = Tensor(out_c, in_c, kernel, kernel);
  b_->value = Tensor(1, out_c, 1, 1);
  b_->grad = Tensor(1, out_c, 1, 1);
}

void Conv2dLayer::init_he(Rng* rng) {
  const float fan_in =
      static_cast<float>(spec_.in_channels * spec_.kernel * spec_.kernel);
  const float std = std::sqrt(2.0f / fan_in);
  for (std::size_t i = 0; i < w_->value.size(); ++i)
    w_->value[i] = rng->normal(0.0f, std);
  b_->value.fill(0.0f);
}

KernelKind Conv2dLayer::resolve_kernel() const {
  // The INT8 path serves inference only: training (and calibration, which
  // must observe fp32 activations) always runs the float kernels against
  // the authoritative fp32 weights.
  const GemmBackend be = policy_.resolve();
  if (quant_.use_int8(training_, be)) return KernelKind::kInt8;
  return be == GemmBackend::kReference ? KernelKind::kGemmReference
                                       : KernelKind::kGemmPacked;
}

void Conv2dLayer::run_kernel(KernelKind k, const Tensor& x, Tensor* y) {
  switch (k) {
    case KernelKind::kInt8:
      conv2d_forward_int8(spec_, x, quant_.qw, b_->value, y, fuse_relu_);
      return;
    case KernelKind::kGemmReference:
      conv2d_forward(spec_, x, w_->value, b_->value, y, fuse_relu_,
                     GemmBackend::kReference);
      return;
    default:
      conv2d_forward(spec_, x, w_->value, b_->value, y, fuse_relu_,
                     GemmBackend::kPacked);
      return;
  }
}

void Conv2dLayer::forward(const Tensor& x, Tensor* y) {
  // Backward state (input copy; in fused mode also the output copy that
  // sources the ReLU mask, valid since [y > 0] ≡ [pre-relu > 0]) is only
  // kept in training mode — inference forwards make no activation copies.
  backward_ready_ = training_;
  if (quant_.calibrating) quant_.observe(x);
  if (training_) cached_x_ = x;
  run_kernel(resolve_kernel(), x, y);
  if (fuse_relu_ && training_) cached_y_ = *y;
}

void Conv2dLayer::plan_forward(PlanShape* shape, ExecutionPlan* plan) const {
  PlanStep step;
  step.layer = name();
  step.kernel = resolve_kernel();
  step.in = *shape;
  step.out = PlanShape{shape->n, spec_.out_channels, spec_.out_dim(shape->h),
                       spec_.out_dim(shape->w)};
  step.workspace_floats = conv2d_forward_workspace_floats(
      spec_, shape->n, shape->h, shape->w, step.kernel);
  step.macs = static_cast<long long>(shape->n) *
              conv2d_macs(spec_, shape->h, shape->w);
  plan->steps.push_back(std::move(step));
  *shape = plan->steps.back().out;
}

void Conv2dLayer::forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) {
  const PlanStep& step = pc->take();
  // Plans are inference-only; the owning model must route training and
  // calibration forwards through the eager path.
  assert(!training_ && !quant_.calibrating);
  assert(step.in.n == x.n() && step.in.c == x.c() && step.in.h == x.h() &&
         step.in.w == x.w());
  backward_ready_ = false;
  run_kernel(step.kernel, x, y);
}

void Conv2dLayer::set_calibration(bool on) { quant_.calibrating = on; }

bool Conv2dLayer::quantize() {
  return quant_.freeze(w_->value.data(), spec_.out_channels,
                       spec_.in_channels * spec_.kernel * spec_.kernel);
}

void Conv2dLayer::quantize_with_range(float lo, float hi) {
  quant_.freeze_with_range(w_->value.data(), spec_.out_channels,
                           spec_.in_channels * spec_.kernel * spec_.kernel,
                           lo, hi);
}

void Conv2dLayer::backward(const Tensor& dy, Tensor* dx) {
  // A backward against state from a non-training (or missing) forward, or
  // against a mismatched upstream gradient, would silently produce garbage
  // gradients — fail loudly (asserts are compiled out in Release).
  if (!backward_ready_) {
    std::fprintf(stderr,
                 "Conv2dLayer: backward requires set_training(true) before "
                 "the matching forward\n");
    std::abort();
  }
  if (fuse_relu_ && !dy.same_shape(cached_y_)) {
    std::fprintf(stderr,
                 "Conv2dLayer: fused backward got dy %s but cached output %s\n",
                 dy.shape_str().c_str(), cached_y_.shape_str().c_str());
    std::abort();
  }
  if (dx != nullptr && !dx->same_shape(cached_x_)) {
    *dx = Tensor(cached_x_.n(), cached_x_.c(), cached_x_.h(), cached_x_.w());
  }
  const Tensor* dconv = &dy;
  if (fuse_relu_) {
    if (!masked_dy_.same_shape(dy))
      masked_dy_ = Tensor(dy.n(), dy.c(), dy.h(), dy.w());
    for (std::size_t i = 0; i < dy.size(); ++i)
      masked_dy_[i] = cached_y_[i] > 0.0f ? dy[i] : 0.0f;
    dconv = &masked_dy_;
  }
  conv2d_backward(spec_, cached_x_, w_->value, *dconv, dx, &w_->grad, &b_->grad);
}

void Conv2dLayer::collect_params(std::vector<Param*>* out) {
  out->push_back(w_.get());
  out->push_back(b_.get());
}

void Conv2dLayer::share_params_with(Layer* src) {
  auto* o = dynamic_cast<Conv2dLayer*>(src);
  if (o == nullptr || !o->w_->value.same_shape(w_->value) ||
      !o->b_->value.same_shape(b_->value)) {
    std::fprintf(stderr,
                 "Conv2dLayer::share_params_with: source is not a Conv2dLayer "
                 "of identical geometry\n");
    std::abort();
  }
  w_ = o->w_;
  b_ = o->b_;
}

void Conv2dLayer::set_training(bool training) {
  training_ = training;
  if (!training) {
    // Free the backward-state tensors (callers toggle off only after the
    // backward has consumed them); the guard below keeps a subsequent
    // backward from running against the released state.
    cached_x_ = Tensor();
    cached_y_ = Tensor();
    masked_dy_ = Tensor();
    backward_ready_ = false;
  }
}

// ------------------------------------------------------------------ ReLU
void ReluLayer::forward(const Tensor& x, Tensor* y) {
  cached_x_ = x;
  relu_forward(x, y);
}

void ReluLayer::backward(const Tensor& dy, Tensor* dx) {
  if (dx == nullptr) return;
  if (!dx->same_shape(cached_x_))
    *dx = Tensor(cached_x_.n(), cached_x_.c(), cached_x_.h(), cached_x_.w());
  relu_backward(cached_x_, dy, dx);
}

// --------------------------------------------------------------- MaxPool
void MaxPool2Layer::forward(const Tensor& x, Tensor* y) {
  in_n_ = x.n(); in_c_ = x.c(); in_h_ = x.h(); in_w_ = x.w();
  backward_ready_ = true;
  maxpool2_forward(x, y, &argmax_);
}

void MaxPool2Layer::plan_forward(PlanShape* shape, ExecutionPlan* plan) const {
  PlanStep step;
  step.layer = name();
  step.in = *shape;
  step.out = PlanShape{shape->n, shape->c, shape->h / 2, shape->w / 2};
  plan->steps.push_back(std::move(step));
  *shape = plan->steps.back().out;
}

void MaxPool2Layer::forward_planned(const Tensor& x, Tensor* y,
                                    PlanCursor* pc) {
  [[maybe_unused]] const PlanStep& step = pc->take();
  assert(step.in.n == x.n() && step.in.c == x.c() && step.in.h == x.h() &&
         step.in.w == x.w());
  // Plans are inference-only, so no backward will read an argmax: skip
  // recording it, and mark the one an older eager forward left (possibly
  // of another shape) unusable.
  backward_ready_ = false;
  maxpool2_forward(x, y, nullptr);
}

void MaxPool2Layer::backward(const Tensor& dy, Tensor* dx) {
  // maxpool2_backward scatters through argmax_ unchecked in Release, so a
  // stale or mismatched argmax would write out of bounds.
  if (!backward_ready_) {
    std::fprintf(stderr,
                 "MaxPool2Layer: backward requires an eager forward (the "
                 "last forward ran planned, or none ran)\n");
    std::abort();
  }
  if (dy.n() != in_n_ || dy.c() != in_c_ || dy.h() != in_h_ / 2 ||
      dy.w() != in_w_ / 2) {
    std::fprintf(stderr,
                 "MaxPool2Layer: backward got dy %s but the forward output "
                 "was [%d,%d,%d,%d]\n",
                 dy.shape_str().c_str(), in_n_, in_c_, in_h_ / 2, in_w_ / 2);
    std::abort();
  }
  if (dx == nullptr) return;
  if (dx->n() != in_n_ || dx->c() != in_c_ || dx->h() != in_h_ ||
      dx->w() != in_w_)
    *dx = Tensor(in_n_, in_c_, in_h_, in_w_);
  maxpool2_backward(dy, argmax_, dx);
}

// ------------------------------------------------------------------- GAP
void GlobalAvgPoolLayer::forward(const Tensor& x, Tensor* y) {
  in_n_ = x.n(); in_c_ = x.c(); in_h_ = x.h(); in_w_ = x.w();
  global_avg_pool_forward(x, y);
}

void GlobalAvgPoolLayer::plan_forward(PlanShape* shape,
                                      ExecutionPlan* plan) const {
  PlanStep step;
  step.layer = name();
  step.in = *shape;
  step.out = PlanShape{shape->n, shape->c, 1, 1};
  plan->steps.push_back(std::move(step));
  *shape = plan->steps.back().out;
}

void GlobalAvgPoolLayer::backward(const Tensor& dy, Tensor* dx) {
  if (dx == nullptr) return;
  if (dx->n() != in_n_ || dx->c() != in_c_ || dx->h() != in_h_ ||
      dx->w() != in_w_)
    *dx = Tensor(in_n_, in_c_, in_h_, in_w_);
  global_avg_pool_backward(*dx, dy, dx);
}

// ---------------------------------------------------------------- Linear
LinearLayer::LinearLayer(int in, int out) {
  w_->value = Tensor(out, in, 1, 1);
  w_->grad = Tensor(out, in, 1, 1);
  b_->value = Tensor(1, out, 1, 1);
  b_->grad = Tensor(1, out, 1, 1);
}

void LinearLayer::init_he(Rng* rng) {
  const float std = std::sqrt(2.0f / static_cast<float>(w_->value.c()));
  for (std::size_t i = 0; i < w_->value.size(); ++i)
    w_->value[i] = rng->normal(0.0f, std);
  b_->value.fill(0.0f);
}

KernelKind LinearLayer::resolve_kernel() const {
  const GemmBackend be = policy_.resolve();
  if (quant_.use_int8(training_, be)) return KernelKind::kInt8;
  return be == GemmBackend::kReference ? KernelKind::kGemmReference
                                       : KernelKind::kGemmPacked;
}

void LinearLayer::run_kernel(KernelKind k, const Tensor& x, Tensor* y) {
  switch (k) {
    case KernelKind::kInt8:
      linear_forward_int8(x, quant_.qw, b_->value, y);
      return;
    case KernelKind::kGemmReference:
      linear_forward(x, w_->value, b_->value, y, GemmBackend::kReference);
      return;
    default:
      linear_forward(x, w_->value, b_->value, y, GemmBackend::kPacked);
      return;
  }
}

void LinearLayer::forward(const Tensor& x, Tensor* y) {
  if (quant_.calibrating) quant_.observe(x);
  cached_x_ = x;
  backward_ready_ = true;
  run_kernel(resolve_kernel(), x, y);
}

void LinearLayer::plan_forward(PlanShape* shape, ExecutionPlan* plan) const {
  PlanStep step;
  step.layer = name();
  step.kernel = resolve_kernel();
  step.in = *shape;
  step.out = PlanShape{shape->n, w_->value.n(), 1, 1};
  step.workspace_floats = linear_forward_workspace_floats(
      shape->n, w_->value.c(), w_->value.n(), step.kernel);
  step.macs = static_cast<long long>(shape->n) * w_->value.n() * w_->value.c();
  plan->steps.push_back(std::move(step));
  *shape = plan->steps.back().out;
}

void LinearLayer::forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) {
  const PlanStep& step = pc->take();
  assert(!training_ && !quant_.calibrating);
  assert(step.in.n == x.n() && step.in.c == x.c());
  // The input cache feeds backward only; planned forwards are
  // inference-only, so skip the copy the eager path still makes — and
  // mark the stale cache unusable so a backward cannot silently consume
  // it (same guard as Conv2dLayer).
  backward_ready_ = false;
  run_kernel(step.kernel, x, y);
}

void LinearLayer::set_calibration(bool on) { quant_.calibrating = on; }

bool LinearLayer::quantize() {
  return quant_.freeze(w_->value.data(), w_->value.n(), w_->value.c());
}

void LinearLayer::quantize_with_range(float lo, float hi) {
  quant_.freeze_with_range(w_->value.data(), w_->value.n(), w_->value.c(), lo,
                           hi);
}

void LinearLayer::backward(const Tensor& dy, Tensor* dx) {
  // A backward against the stale input cache of a *planned* forward would
  // silently produce gradients of the wrong activations.
  if (!backward_ready_) {
    std::fprintf(stderr,
                 "LinearLayer: backward requires an eager forward (the "
                 "last forward ran planned)\n");
    std::abort();
  }
  if (dx != nullptr && !dx->same_shape(cached_x_))
    *dx = Tensor(cached_x_.n(), cached_x_.c(), cached_x_.h(), cached_x_.w());
  linear_backward(cached_x_, w_->value, dy, dx, &w_->grad, &b_->grad);
}

void LinearLayer::collect_params(std::vector<Param*>* out) {
  out->push_back(w_.get());
  out->push_back(b_.get());
}

void LinearLayer::share_params_with(Layer* src) {
  auto* o = dynamic_cast<LinearLayer*>(src);
  if (o == nullptr || !o->w_->value.same_shape(w_->value) ||
      !o->b_->value.same_shape(b_->value)) {
    std::fprintf(stderr,
                 "LinearLayer::share_params_with: source is not a LinearLayer "
                 "of identical geometry\n");
    std::abort();
  }
  w_ = o->w_;
  b_ = o->b_;
}

// ------------------------------------------------------------ Sequential
void Sequential::forward(const Tensor& x, Tensor* y) {
  acts_.resize(layers_.size() + 1);
  acts_[0] = x;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    layers_[i]->forward(acts_[i], &acts_[i + 1]);
  *y = acts_.back();
}

void Sequential::forward_planned(const Tensor& x, Tensor* y, PlanCursor* pc) {
  if (layers_.empty()) {
    *y = x;
    return;
  }
  if (planned_outs_.size() != layers_.size())
    planned_outs_.resize(layers_.size());
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Tensor* out = (i + 1 == layers_.size()) ? y : &planned_outs_[i];
    layers_[i]->forward_planned(*cur, out, pc);
    cur = out;
  }
}

void Sequential::backward(const Tensor& dy, Tensor* dx) {
  assert(!acts_.empty() && "forward must run before backward");
  grads_.resize(layers_.size() + 1);
  grads_.back() = dy;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Tensor* below = (i == 0) ? dx : &grads_[i];
    if (below != nullptr) {
      *below = Tensor(acts_[i].n(), acts_[i].c(), acts_[i].h(), acts_[i].w());
    }
    layers_[i]->backward(grads_[i + 1], below);
  }
}

void Sequential::collect_params(std::vector<Param*>* out) {
  for (auto& l : layers_) l->collect_params(out);
}

void Sequential::share_params_with(Layer* src) {
  auto* o = dynamic_cast<Sequential*>(src);
  if (o == nullptr || o->layers_.size() != layers_.size()) {
    std::fprintf(stderr,
                 "Sequential::share_params_with: source is not a Sequential "
                 "of the same length\n");
    std::abort();
  }
  for (std::size_t i = 0; i < layers_.size(); ++i)
    layers_[i]->share_params_with(o->layers_[i].get());
}

}  // namespace ada
