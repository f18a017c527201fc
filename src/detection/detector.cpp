#include "detection/detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "detection/nms.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "tensor/loss.h"
#include "util/timer.h"

namespace ada {

namespace {

/// Gathers one anchor's `kp1` class logits for image `n` of the head output.
void gather_anchor_logits(const Tensor& cls, int n, int kp1, int cell, int a,
                          float* out) {
  const int fw = cls.w();
  const int i = cell / fw;
  const int j = cell % fw;
  for (int c = 0; c < kp1; ++c) out[c] = cls.at(n, a * kp1 + c, i, j);
}

}  // namespace

std::string DetectorConfig::fingerprint() const {
  std::ostringstream os;
  os << "det:v5:k=" << num_classes << ":c=" << c1 << '/' << c2 << '/' << c3
     << ":stride=" << anchors.stride << ":sizes=";
  for (float s : anchors.sizes) os << s << ',';
  os << ":aspects=";
  for (float a : anchors.aspects) os << a << ',';
  os << ":nms=" << nms_threshold << ":topk=" << top_k;
  return os.str();
}

Detector::Detector(const DetectorConfig& cfg, Rng* rng)
    : cfg_(cfg),
      cls_head_(cfg.c3, cfg.anchors.per_cell() * (cfg.num_classes + 1), 1, 1,
                0),
      reg_head_(cfg.c3, cfg.anchors.per_cell() * 4, 1, 1, 0) {
  // Backbone: three conv/pool stages to stride 8, plus one stride-8 conv
  // that widens the receptive field for large objects.  Every conv fuses
  // bias+ReLU into the GEMM write-out (one pass over each activation tensor
  // instead of three: conv write, relu read+write, relu input cache).
  auto* conv1 =
      backbone_.emplace<Conv2dLayer>(3, cfg.c1, 3, 1, 1, 1, /*fuse_relu=*/true);
  backbone_.emplace<MaxPool2Layer>();
  auto* conv2 = backbone_.emplace<Conv2dLayer>(cfg.c1, cfg.c2, 3, 1, 1, 1,
                                               /*fuse_relu=*/true);
  backbone_.emplace<MaxPool2Layer>();
  auto* conv3 = backbone_.emplace<Conv2dLayer>(cfg.c2, cfg.c3, 3, 1, 1, 1,
                                               /*fuse_relu=*/true);
  backbone_.emplace<MaxPool2Layer>();
  // Dilation 4 at stride 8 grows the receptive field from ~38 px to ~86 px;
  // without it the heads see a window far smaller than the ~100-140 px
  // objects at scale 600 and cannot localize them (mAP at 600 collapses).
  auto* conv4 = backbone_.emplace<Conv2dLayer>(cfg.c3, cfg.c3, 3, 1, 4,
                                               /*dilation=*/4,
                                               /*fuse_relu=*/true);

  // Layers cache backward state by default; this object owns its training
  // entry points (loss_impl toggles the flag around the forward), so keep
  // the hot inference path copy-free.
  backbone_.set_training(false);
  cls_head_.set_training(false);
  reg_head_.set_training(false);

  conv1->init_he(rng);
  conv2->init_he(rng);
  conv3->init_he(rng);
  conv4->init_he(rng);
  cls_head_.init_he(rng);
  reg_head_.init_he(rng);
  // Bias the background logit up so early training is not drowned in
  // false positives (standard single-stage detector initialization trick).
  const int kp1 = cfg_.num_classes + 1;
  Tensor& cb = cls_head_.bias().value;
  for (int a = 0; a < cfg_.anchors.per_cell(); ++a)
    cb[static_cast<std::size_t>(a * kp1)] = 2.0f;
}

void Detector::set_execution_policy(const ExecutionPolicy& policy) {
  policy_ = policy;
  backbone_.set_policy(policy);
  cls_head_.set_policy(policy);
  reg_head_.set_policy(policy);
  invalidate_plans();
}

const ExecutionPlan& Detector::plan_for(int n, int img_h, int img_w) {
  const GemmBackend be = policy_.resolve();
  const auto key = std::make_tuple(n, img_h, img_w, static_cast<int>(be));
  // The cache may be shared with weight-aliased clones serving on other
  // threads; the returned reference stays valid outside the lock because
  // std::map nodes never relocate and clear() only runs at setup time.
  std::lock_guard<std::mutex> lk(plans_->mu);
  auto it = plans_->plans.find(key);
  if (it == plans_->plans.end()) {
    ExecutionPlan plan;
    plan.input = PlanShape{n, 3, img_h, img_w};
    plan.policy = policy_.name();
    PlanShape shape = plan.input;
    backbone_.plan_forward(&shape, &plan);
    // Both heads read the backbone output; plan them on copies of the
    // feature shape in the order forward() runs them.  They are the last
    // two steps, which detect_from_features runs on external features.
    PlanShape cls_in = shape;
    cls_head_.plan_forward(&cls_in, &plan);
    PlanShape reg_in = shape;
    reg_head_.plan_forward(&reg_in, &plan);
    plan.finalize();
    it = plans_->plans.emplace(key, std::move(plan)).first;
  }
  return it->second;
}

const Tensor& Detector::forward(const Tensor& image) {
  if (use_plans_) {
    const ExecutionPlan& plan = plan_for(image.n(), image.h(), image.w());
    // Pre-size this thread's arena to the plan's exact peak, so even the
    // first forward at this scale grows nothing mid-kernel.
    scratch_arena().reserve(plan.arena_floats);
    PlanCursor pc(&plan);
    backbone_.forward_planned(image, &features_, &pc);
    cls_head_.forward_planned(features_, &heads_.cls, &pc);
    reg_head_.forward_planned(features_, &heads_.reg, &pc);
    return features_;
  }
  backbone_.forward(image, &features_);
  cls_head_.forward(features_, &heads_.cls);
  reg_head_.forward(features_, &heads_.reg);
  return features_;
}

DetectionOutput Detector::detect(const Tensor& image) {
  Timer timer;
  forward(image);
  DetectionOutput out = detect_from_features(features_, image.h(), image.w());
  out.forward_ms = timer.elapsed_ms();
  return out;
}

std::vector<DetectionOutput> Detector::detect_batch(const Tensor& images) {
  Timer timer;
  forward(images);
  const std::vector<Box> anchors =
      generate_anchors(cfg_.anchors, heads_.cls.h(), heads_.cls.w());
  std::vector<DetectionOutput> outs(static_cast<std::size_t>(images.n()));
  // Per-image decode + NMS own disjoint output slots; NMS's own per-class
  // parallel_for nests inline, so the split stays deterministic.
  parallel_for(images.n(), 1, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n)
      outs[static_cast<std::size_t>(n)] =
          decode_image(static_cast<int>(n), images.h(), images.w(), anchors);
  });
  const double amortized_ms =
      timer.elapsed_ms() / static_cast<double>(std::max(images.n(), 1));
  for (DetectionOutput& out : outs) out.forward_ms = amortized_ms;
  return outs;
}

std::vector<Detection> decode_candidates(const Tensor& cls, const Tensor& reg,
                                         int n, int num_classes,
                                         const std::vector<Box>& anchors,
                                         float score_threshold, int image_h,
                                         int image_w) {
  const int fw = cls.w();
  const int cells = cls.h() * fw;
  const int kp1 = num_classes + 1;
  const int per_cell = cls.c() / kp1;
  assert(per_cell * kp1 == cls.c() && reg.c() == per_cell * 4);
  assert(anchors.size() == static_cast<std::size_t>(cells) * per_cell);
  std::vector<Detection> cand;
  if (num_classes < 1) return cand;  // no foreground class to score

  // A foreground probability e^fg / sum_c e^c is at most e^(fg - bg), so an
  // anchor whose background logit leads its best foreground logit by more
  // than ln(1/threshold) cannot reach the threshold and skips the softmax.
  // The extra 0.01 (a factor of 0.99 in probability) dwarfs the float
  // rounding of this test and of the softmax, so the candidates are exactly
  // those a softmax over every anchor yields.  A zero, negative or NaN threshold makes the
  // margin infinite or NaN, and then nothing skips.
  const float skip_margin = std::log(1.0f / score_threshold) + 0.01f;

  ScratchFrame frame(&scratch_arena());
  // Channel-major sweep: each anchor's maximum foreground logit per cell,
  // reading every class plane contiguously.
  const float* planes = cls.data() + static_cast<std::size_t>(n) * cls.image_size();
  float* max_fg = frame.alloc(static_cast<std::size_t>(per_cell) * cells);
  for (int a = 0; a < per_cell; ++a) {
    float* m = max_fg + static_cast<std::size_t>(a) * cells;
    const float* plane = planes + static_cast<std::size_t>(a * kp1 + 1) * cells;
    std::copy(plane, plane + cells, m);
    for (int c = 2; c < kp1; ++c) {
      plane += cells;
      for (int k = 0; k < cells; ++k) m[k] = std::max(m[k], plane[k]);
    }
  }

  float* logits = frame.alloc(static_cast<std::size_t>(kp1));
  float* probs = frame.alloc(static_cast<std::size_t>(kp1));
  for (int cell = 0; cell < cells; ++cell) {
    for (int a = 0; a < per_cell; ++a) {
      const float bg = planes[static_cast<std::size_t>(a * kp1) * cells + cell];
      if (bg - max_fg[static_cast<std::size_t>(a) * cells + cell] > skip_margin)
        continue;
      gather_anchor_logits(cls, n, kp1, cell, a, logits);
      softmax_span(logits, kp1, probs);
      int best_c = 0;
      float best_p = 0.0f;
      for (int c = 1; c < kp1; ++c)
        if (probs[c] > best_p) {
          best_p = probs[c];
          best_c = c;
        }
      if (best_c == 0 || best_p < score_threshold) continue;

      const int i = cell / fw, j = cell % fw;
      std::array<float, 4> delta;
      for (int d = 0; d < 4; ++d) delta[static_cast<std::size_t>(d)] = reg.at(n, a * 4 + d, i, j);
      const Box& anchor = anchors[static_cast<std::size_t>(cell * per_cell + a)];
      Box box = clip_box(decode_box(delta, anchor), image_h, image_w);
      if (box.width() < 1.0f || box.height() < 1.0f) continue;

      Detection det;
      det.box = box;
      det.class_id = best_c - 1;
      det.score = best_p;
      det.probs.assign(probs, probs + kp1);
      det.delta = delta;
      det.anchor = anchor;
      cand.push_back(std::move(det));
    }
  }
  return cand;
}

DetectionOutput Detector::decode_image(int n, int image_h, int image_w,
                                       const std::vector<Box>& anchors) const {
  std::vector<Detection> cand =
      decode_candidates(heads_.cls, heads_.reg, n, cfg_.num_classes, anchors,
                        cfg_.score_threshold, image_h, image_w);

  // Per-class NMS (the released R-FCN protocol) + top-K.  Class-agnostic
  // suppression here loses overlapping objects of different classes — the
  // synthetic scenes occlude heavily, so that costs a large fraction of
  // recall.
  std::vector<int> keep = nms_detections(cand, cfg_.nms_threshold);
  if (static_cast<int>(keep.size()) > cfg_.top_k) keep.resize(static_cast<std::size_t>(cfg_.top_k));

  DetectionOutput out;
  out.image_h = image_h;
  out.image_w = image_w;
  out.detections.reserve(keep.size());
  for (int idx : keep) out.detections.push_back(std::move(cand[static_cast<std::size_t>(idx)]));
  return out;
}

DetectionOutput Detector::detect_from_features(const Tensor& features,
                                               int image_h, int image_w) {
  Timer timer;
  // External features (a DFF warp, or a key frame's features handed back
  // by a backend): run the heads on them through the head steps of this
  // image size's plan, the kernels forward() would run.
  if (&features != &features_) {
    const ExecutionPlan& plan = plan_for(features.n(), image_h, image_w);
    scratch_arena().reserve(plan.arena_floats);
    PlanCursor pc(&plan, plan.steps.size() - 2);
    cls_head_.forward_planned(features, &heads_.cls, &pc);
    reg_head_.forward_planned(features, &heads_.reg, &pc);
  }
  const std::vector<Box> anchors =
      generate_anchors(cfg_.anchors, heads_.cls.h(), heads_.cls.w());
  DetectionOutput out = decode_image(0, image_h, image_w, anchors);
  out.forward_ms = timer.elapsed_ms();
  return out;
}

float Detector::loss_impl(const Tensor& image, const std::vector<GtBox>& gts,
                          Rng* rng, bool train) {
  // Let the layers cache their backward state (input copies, fused ReLU
  // masks) only when a backward pass is actually coming; plain
  // detect()/forward() stays copy-free.  Toggled back off at the end of
  // this function — after the backward — which also releases the cached
  // activation tensors.
  backbone_.set_training(train);
  cls_head_.set_training(train);
  reg_head_.set_training(train);
  // Training forwards must run eagerly (backward state, fp32 kernels), and
  // training-mode re-entry invalidates cached plans: the weights the plans'
  // int8 tables were frozen from are about to change.
  use_plans_ = false;
  if (train) invalidate_plans();
  forward(image);
  const Tensor& cls = heads_.cls;
  const Tensor& reg = heads_.reg;
  const int fh = cls.h(), fw = cls.w();
  const int per_cell = cfg_.anchors.per_cell();
  const int kp1 = cfg_.num_classes + 1;

  const std::vector<Box> anchors = generate_anchors(cfg_.anchors, fh, fw);
  const std::vector<AnchorTarget> targets =
      assign_anchors(anchors, gts, AssignConfig{});

  // Sample anchors: all foreground (capped), bg_per_fg background per fg.
  std::vector<int> fg, bg;
  for (std::size_t a = 0; a < targets.size(); ++a) {
    if (targets[a].label > 0)
      fg.push_back(static_cast<int>(a));
    else if (targets[a].label == 0)
      bg.push_back(static_cast<int>(a));
  }
  rng->shuffle(fg);
  rng->shuffle(bg);
  if (static_cast<int>(fg.size()) > cfg_.max_fg_samples)
    fg.resize(static_cast<std::size_t>(cfg_.max_fg_samples));
  const int want_bg = std::max(cfg_.min_bg_samples,
                               static_cast<int>(fg.size()) * cfg_.bg_per_fg);
  if (static_cast<int>(bg.size()) > want_bg) {
    // Online hard-negative mining: half of the background budget goes to the
    // highest-loss negatives (anchors the classifier currently mistakes for
    // objects — typically clutter), half stays random.  Pure random sampling
    // almost never revisits the few clutter anchors among thousands of easy
    // ones, leaving confident false positives untrained.
    const int hard_n = want_bg / 2;
    std::vector<float> bg_loss(bg.size());
    std::vector<float> lg(static_cast<std::size_t>(kp1));
    for (std::size_t k = 0; k < bg.size(); ++k) {
      const int cell = bg[k] / per_cell;
      const int a = bg[k] % per_cell;
      gather_anchor_logits(cls, 0, kp1, cell, a, lg.data());
      bg_loss[k] = softmax_cross_entropy_span(lg.data(), kp1, 0, nullptr);
    }
    std::vector<int> idx(bg.size());
    for (std::size_t k = 0; k < idx.size(); ++k) idx[k] = static_cast<int>(k);
    std::partial_sort(idx.begin(), idx.begin() + hard_n, idx.end(),
                      [&](int a, int b) { return bg_loss[static_cast<std::size_t>(a)] >
                                                 bg_loss[static_cast<std::size_t>(b)]; });
    std::vector<int> chosen;
    chosen.reserve(static_cast<std::size_t>(want_bg));
    for (int k = 0; k < hard_n; ++k)
      chosen.push_back(bg[static_cast<std::size_t>(idx[static_cast<std::size_t>(k)])]);
    // bg is already shuffled; walk it for the random half, skipping the
    // hard picks.
    std::vector<char> taken(bg.size(), 0);
    for (int k = 0; k < hard_n; ++k) taken[static_cast<std::size_t>(idx[static_cast<std::size_t>(k)])] = 1;
    for (std::size_t k = 0; k < bg.size() && static_cast<int>(chosen.size()) < want_bg; ++k)
      if (!taken[k]) chosen.push_back(bg[k]);
    bg = std::move(chosen);
  }

  Tensor dcls, dreg;
  if (train) {
    dcls = Tensor(1, cls.c(), fh, fw);
    dreg = Tensor(1, reg.c(), fh, fw);
  }

  // Foreground and background classification losses are normalized
  // *separately* and averaged: with a shared mean the 3:1 background
  // majority dominates and the classifier collapses to "everything is
  // background" (observed during calibration; the paper starts from a
  // pretrained R-FCN and never faces this cold-start regime).
  const float fg_norm =
      0.5f / static_cast<float>(std::max<std::size_t>(fg.size(), 1));
  const float bg_norm =
      0.5f / static_cast<float>(std::max<std::size_t>(bg.size(), 1));
  const float reg_norm = 1.0f / static_cast<float>(std::max<std::size_t>(fg.size(), 1));

  double total = 0.0;
  std::vector<float> logits(static_cast<std::size_t>(kp1));
  std::vector<float> dlogits(static_cast<std::size_t>(kp1));
  auto process = [&](int flat_a, bool is_fg) {
    const int cell = flat_a / per_cell;
    const int a = flat_a % per_cell;
    const int i = cell / fw, j = cell % fw;
    const float cls_norm = is_fg ? fg_norm : bg_norm;
    gather_anchor_logits(cls, 0, kp1, cell, a, logits.data());
    std::fill(dlogits.begin(), dlogits.end(), 0.0f);
    const AnchorTarget& t = targets[static_cast<std::size_t>(flat_a)];
    const float lcls = softmax_cross_entropy_span(
        logits.data(), kp1, t.label > 0 ? t.label : 0,
        train ? dlogits.data() : nullptr);
    total += static_cast<double>(lcls) * cls_norm;
    if (train)
      for (int c = 0; c < kp1; ++c)
        dcls.at(0, a * kp1 + c, i, j) += dlogits[static_cast<std::size_t>(c)] * cls_norm;

    if (is_fg) {
      float pred[4], dpred[4] = {0, 0, 0, 0};
      for (int d = 0; d < 4; ++d) pred[d] = reg.at(0, a * 4 + d, i, j);
      const float lreg =
          smooth_l1(pred, t.delta.data(), 4, train ? dpred : nullptr);
      total += static_cast<double>(cfg_.reg_loss_weight) * lreg * reg_norm;
      if (train)
        for (int d = 0; d < 4; ++d)
          dreg.at(0, a * 4 + d, i, j) +=
              cfg_.reg_loss_weight * dpred[d] * reg_norm;
    }
  };
  for (int a : fg) process(a, true);
  for (int a : bg) process(a, false);

  if (train) {
    Tensor dfeat_cls(features_.n(), features_.c(), features_.h(),
                     features_.w());
    Tensor dfeat_reg(features_.n(), features_.c(), features_.h(),
                     features_.w());
    cls_head_.backward(dcls, &dfeat_cls);
    reg_head_.backward(dreg, &dfeat_reg);
    for (std::size_t k = 0; k < dfeat_cls.size(); ++k)
      dfeat_cls[k] += dfeat_reg[k];
    backbone_.backward(dfeat_cls, nullptr);
  }
  backbone_.set_training(false);
  cls_head_.set_training(false);
  reg_head_.set_training(false);
  use_plans_ = true;
  return static_cast<float>(total);
}

void Detector::quantize(const std::vector<Tensor>& calibration_images) {
  backbone_.set_calibration(true);
  cls_head_.set_calibration(true);
  reg_head_.set_calibration(true);
  // Calibration forwards run eagerly: observation hooks live in the eager
  // path, and calibration must see fp32 activations regardless of plan
  // kernel choices.
  use_plans_ = false;
  for (const Tensor& img : calibration_images) forward(img);
  use_plans_ = true;
  backbone_.set_calibration(false);
  cls_head_.set_calibration(false);
  reg_head_.set_calibration(false);
  backbone_.quantize();
  cls_head_.quantize();
  reg_head_.quantize();
  // Kernel choices under an int8 policy just changed.
  invalidate_plans();
}

std::vector<QuantSummary> Detector::quant_summaries() {
  std::vector<QuantSummary> out;
  int ci = 0;
  for (std::size_t i = 0; i < backbone_.size(); ++i)
    if (auto* c = dynamic_cast<Conv2dLayer*>(backbone_.at(i));
        c != nullptr && c->is_quantized())
      out.push_back(summarize_quant(*c, "conv" + std::to_string(++ci)));
  if (cls_head_.is_quantized())
    out.push_back(summarize_quant(cls_head_, "cls_head"));
  if (reg_head_.is_quantized())
    out.push_back(summarize_quant(reg_head_, "reg_head"));
  return out;
}

void Detector::quantize_like(Detector* src) {
  for (std::size_t i = 0; i < backbone_.size(); ++i) {
    auto* from = dynamic_cast<Conv2dLayer*>(src->backbone_.at(i));
    auto* to = dynamic_cast<Conv2dLayer*>(backbone_.at(i));
    if (from != nullptr && to != nullptr && from->is_quantized())
      to->quantize_with_range(from->act_lo(), from->act_hi());
  }
  if (src->cls_head_.is_quantized())
    cls_head_.quantize_with_range(src->cls_head_.act_lo(),
                                  src->cls_head_.act_hi());
  if (src->reg_head_.is_quantized())
    reg_head_.quantize_with_range(src->reg_head_.act_lo(),
                                  src->reg_head_.act_hi());
  invalidate_plans();
}

float Detector::train_step(const Tensor& image, const std::vector<GtBox>& gts,
                           Sgd* opt, Rng* rng) {
  opt->zero_grad();
  const float loss = loss_impl(image, gts, rng, /*train=*/true);
  opt->step();
  return loss;
}

float Detector::compute_loss(const Tensor& image,
                             const std::vector<GtBox>& gts, Rng* rng) {
  return loss_impl(image, gts, rng, /*train=*/false);
}

std::vector<Param*> Detector::parameters() {
  std::vector<Param*> out;
  backbone_.collect_params(&out);
  cls_head_.collect_params(&out);
  reg_head_.collect_params(&out);
  return out;
}

std::unique_ptr<Detector> clone_detector(Detector* src) {
  Rng rng(0);  // initialization is immediately overwritten
  auto dst = std::make_unique<Detector>(src->config(), &rng);
  copy_param_values(src->parameters(), dst->parameters());
  // Quantization state rides along: re-freezing from the copied fp32
  // weights and the source's calibrated ranges reproduces bit-identical
  // INT8 tables, so stream/context clones serve exactly like the source.
  if (src->quantized()) dst->quantize_like(src);
  // The execution policy rides along too — a mixed-precision serving
  // config survives cloning into serving contexts.
  dst->set_execution_policy(src->execution_policy());
  return dst;
}

void Detector::share_storage_with(Detector* src) {
  backbone_.share_params_with(&src->backbone_);
  cls_head_.share_params_with(&src->cls_head_);
  reg_head_.share_params_with(&src->reg_head_);
  plans_ = src->plans_;
}

std::unique_ptr<Detector> clone_detector_shared(Detector* src) {
  // Build a full clone first (quantize_like freezes per-instance INT8
  // tables from its own copied fp32 weights — bit-identical to src's),
  // then drop the duplicated fp32/grad storage by aliasing to src's.
  auto dst = clone_detector(src);
  dst->share_storage_with(src);
  return dst;
}

std::vector<Detector::ConvStackEntry> Detector::conv_stack(int img_h,
                                                           int img_w) const {
  std::vector<ConvStackEntry> out;
  int h = img_h, w = img_w;
  out.push_back({"conv1", ConvSpec{3, cfg_.c1, 3, 1, 1}, h, w});
  h /= 2; w /= 2;
  out.push_back({"conv2", ConvSpec{cfg_.c1, cfg_.c2, 3, 1, 1}, h, w});
  h /= 2; w /= 2;
  out.push_back({"conv3", ConvSpec{cfg_.c2, cfg_.c3, 3, 1, 1}, h, w});
  h /= 2; w /= 2;
  out.push_back({"conv4", ConvSpec{cfg_.c3, cfg_.c3, 3, 1, 4, 4}, h, w});
  out.push_back({"cls_head", cls_head_.spec(), h, w});
  out.push_back({"reg_head", reg_head_.spec(), h, w});
  return out;
}

long long Detector::forward_macs(int img_h, int img_w) const {
  long long total = 0;
  for (const ConvStackEntry& e : conv_stack(img_h, img_w))
    total += conv2d_macs(e.spec, e.in_h, e.in_w);
  return total;
}

}  // namespace ada
