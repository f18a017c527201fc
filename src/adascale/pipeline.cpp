#include "adascale/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "tensor/image_ops.h"
#include "util/timer.h"

namespace ada {

/// Scoped model access for one half of a frame.  With no pool bound,
/// det()/reg() pass through to the constructor-supplied models.  With a
/// pool, the first det()/reg() call acquires a lease and every later call
/// within the hold returns the SAME context (serve_backbone relies on
/// detect_batch() and the following features() read hitting one
/// instance); destruction releases it.
struct AdaScalePipeline::ModelLease {
  explicit ModelLease(AdaScalePipeline* p) : p_(p) {}
  ~ModelLease() {
    if (held_) p_->pool_->release(lease_);
  }
  ModelLease(const ModelLease&) = delete;
  ModelLease& operator=(const ModelLease&) = delete;

  Detector* det() {
    ensure();
    return p_->pool_ != nullptr ? lease_.detector : p_->detector_;
  }
  ScaleRegressor* reg() {
    ensure();
    return p_->pool_ != nullptr ? lease_.regressor : p_->regressor_;
  }

 private:
  void ensure() {
    if (p_->pool_ != nullptr && !held_) {
      lease_ = p_->pool_->acquire();
      held_ = true;
    }
  }

  AdaScalePipeline* p_;
  ModelPool::Lease lease_;
  bool held_ = false;
};

int AdaScalePipeline::capped(int s) const {
  if (scale_cap_ <= 0) return s;
  return sreg_.nearest(std::min(s, scale_cap_));
}

AdaFrameOutput AdaScalePipeline::process(const Scene& frame) {
  StagedFrame f = stage(frame);
  if (f.needs_backbone) {
    StagedFrame* one = &f;
    serve_backbone(&one, 1);
  }
  return std::move(f.out);
}

AdaScalePipeline::StagedFrame AdaScalePipeline::stage(const Scene& frame) {
  if (dff_enabled_) return stage_dff(frame);

  StagedFrame f;
  f.pipeline = this;
  f.needs_backbone = true;
  // A cap imposed between frames takes effect here, before the render.
  ctx_.target_scale = capped(ctx_.target_scale);
  f.out.scale_used = ctx_.target_scale;
  f.image = renderer_->render_at_scale(frame, ctx_.target_scale, policy_);
  return f;
}

void AdaScalePipeline::serve_backbone(StagedFrame* const* frames, int n) {
  AdaScalePipeline* lead = frames[0]->pipeline;
  bool regress = false;
  std::vector<const Tensor*> images;
  images.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const StagedFrame& f = *frames[i];
    const bool same_models = lead->pool_ != nullptr
                                 ? f.pipeline->pool_ == lead->pool_
                                 : f.pipeline == lead;
    if (!f.needs_backbone || !same_models ||
        f.image.h() != frames[0]->image.h() ||
        f.image.w() != frames[0]->image.w()) {
      std::fprintf(stderr,
                   "AdaScalePipeline::serve_backbone: frame %d does not need "
                   "the backbone or does not share frame 0's pool and image "
                   "size\n",
                   i);
      std::abort();
    }
    regress = regress || f.pipeline->regresses_on_backbone();
    images.push_back(&f.image);
  }

  Tensor stacked;
  if (n > 1) stacked = Tensor::batch_of(images);
  ModelLease m(lead);
  std::vector<DetectionOutput> dets =
      m.det()->detect_batch(n > 1 ? stacked : frames[0]->image);
  // Regress t on the deep features of *these* frames; each applies it to
  // its stream's next frame.  Within one lease hold det() is stable, so
  // features() reads the same context detect_batch() just ran on.
  const Tensor& features = m.det()->features();
  std::vector<float> ts(static_cast<std::size_t>(n), 0.0f);
  double regressor_ms = 0.0;
  if (regress) {
    ts = m.reg()->predict_batch(features);
    regressor_ms = m.reg()->last_predict_ms();
  }
  for (int i = 0; i < n; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    frames[i]->pipeline->finish(frames[i], std::move(dets[k]), ts[k],
                                regressor_ms, features, i);
  }
}

void AdaScalePipeline::finish(StagedFrame* f, DetectionOutput dets, float t,
                              double regressor_ms, const Tensor& features,
                              int i) {
  AdaFrameOutput& out = f->out;
  out.detections = std::move(dets);
  out.detect_ms = out.detections.forward_ms;
  if (regresses_on_backbone()) {
    out.regressed_t = t;
    out.regressor_ms = regressor_ms;
  }
  if (!dff_enabled_) {
    out.next_scale = decode_scale_target(t, out.scale_used, sreg_);
    if (snap_to_set_) out.next_scale = sreg_.nearest(out.next_scale);
    out.next_scale = capped(out.next_scale);
    ctx_.target_scale = out.next_scale;
    return;
  }

  // A DFF key: cache its deep features and the grayscale key at feature
  // resolution, which warp frames match against until the next key.
  DffStreamState& st = ctx_.dff;
  st.key_features = features.image(i);
  st.key_gray = Tensor();
  bilinear_resize(f->flow_gray, st.key_features.h(), st.key_features.w(),
                  &st.key_gray);
  st.prev_gray = st.key_gray;
  st.acc_flow_y = Tensor();
  st.acc_flow_x = Tensor();
  if (dff_.adascale) {
    int next = decode_scale_target(t, st.current_scale, sreg_);
    if (snap_to_set_) next = sreg_.nearest(next);
    st.pending_scale = capped(next);
  }
  out.dff_key = true;
  st.has_key = true;
  st.since_key = 0;
  ++st.frame_index;
  out.next_scale = st.pending_scale;
}

void AdaScalePipeline::set_dff(const DffServingConfig& cfg) {
  cfg.validate();
  dff_ = cfg;
  dff_enabled_ = true;
  ctx_.reset(init_scale_);
}

Tensor AdaScalePipeline::flow_gray(const Scene& frame) const {
  return to_grayscale(renderer_->render_at_scale(
      frame, DffServingConfig::flow_render_scale, policy_));
}

AdaScalePipeline::StagedFrame AdaScalePipeline::stage_dff(const Scene& frame) {
  DffStreamState& st = ctx_.dff;
  StagedFrame f;
  f.pipeline = this;
  AdaFrameOutput& out = f.out;
  out.dff = true;
  ModelLease m(this);  // lazy: flow-only warp frames never acquire

  const bool fixed = dff_.policy == DffServingConfig::Keyframe::kFixedInterval;
  bool key = fixed ? (st.frame_index % dff_.key_interval) == 0
                   : (!st.has_key || st.since_key >= dff_.max_interval);

  // Scale changes only take effect at key frames, so warped features always
  // share the cached key's geometry.  A cap imposed between frames also
  // lands here (the key-frame-only scale-change rule applies to it too).
  if (key) st.current_scale = capped(st.pending_scale);
  out.scale_used = st.current_scale;

  if (!key) {
    // Warp attempt: estimate flow from the key frame to this one.  The
    // working-scale render is skipped entirely — the heads only need the
    // image dimensions, which the scale policy knows.  (A forced key below
    // renders at full scale.)
    const int img_h = policy_.render_h(st.current_scale);
    const int img_w = policy_.render_w(st.current_scale);

    Timer flow_timer;
    Tensor cur_gray;
    bilinear_resize(flow_gray(frame), st.key_features.h(), st.key_features.w(),
                    &cur_gray);
    Tensor flow_y, flow_x;
    if (st.acc_flow_y.size() != 0) {
      // Compose this frame's step onto the accumulated key->previous flow.
      Tensor step_y, step_x;
      block_matching_flow(st.prev_gray, cur_gray, dff_.flow, &step_y, &step_x);
      compose_flow(st.acc_flow_y, st.acc_flow_x, step_y, step_x, &flow_y,
                   &flow_x);
    } else {
      // First warp frame after a key: the previous frame is the key.
      block_matching_flow(st.key_gray, cur_gray, dff_.flow, &flow_y, &flow_x);
    }

    if (!fixed) {
      // Adaptive policy: gate propagation on the mean warp residual
      // |warped key gray - current gray| (Zhu et al. 2018's flow-quality
      // refresh idea, an extension beyond the AdaScale paper).
      Tensor warped_gray;
      bilinear_warp(st.key_gray, flow_y, flow_x, &warped_gray);
      double residual = 0.0;
      for (std::size_t i = 0; i < warped_gray.size(); ++i)
        residual +=
            std::abs(static_cast<double>(warped_gray[i]) - cur_gray[i]);
      residual /= static_cast<double>(warped_gray.size());
      out.warp_residual = static_cast<float>(residual);
      if (out.warp_residual > dff_.residual_threshold) {
        // Propagation unreliable: this frame becomes the new key at the
        // scale regressed at the previous key (the key-frame-only
        // scale-change rule).
        st.current_scale = capped(st.pending_scale);
        key = true;
      }
    }

    if (!key) {
      Tensor warped;
      bilinear_warp(st.key_features, flow_y, flow_x, &warped);

      // Scene-change trigger: AdaScale's scale signal is cheap to read on
      // the warped features, and a large jump in the decoded scale means
      // the scene no longer resembles the cached key — refresh at the
      // freshly regressed scale instead of serving stale features.
      if (!fixed && dff_.adascale && dff_.scale_jump_frac > 0.0f) {
        out.regressed_t = m.reg()->predict(warped);
        out.regressor_ms = m.reg()->last_predict_ms();
        int decoded =
            decode_scale_target(out.regressed_t, st.current_scale, sreg_);
        if (snap_to_set_) decoded = sreg_.nearest(decoded);
        decoded = capped(decoded);
        const float jump =
            std::abs(static_cast<float>(decoded - st.current_scale)) /
            static_cast<float>(st.current_scale);
        if (jump >= dff_.scale_jump_frac) {
          st.current_scale = decoded;
          st.pending_scale = decoded;
          key = true;
        }
      }

      if (!key) {
        out.flow_ms = flow_timer.elapsed_ms();
        st.prev_gray = std::move(cur_gray);
        st.acc_flow_y = std::move(flow_y);
        st.acc_flow_x = std::move(flow_x);
        Timer head_timer;
        out.detections = m.det()->detect_from_features(warped, img_h, img_w);
        out.detect_ms = head_timer.elapsed_ms();
        ++st.since_key;
        ++st.frame_index;
        out.next_scale = st.pending_scale;
        return f;
      }
    }

    // A key was forced mid-warp; fall through to the key path, which
    // renders at the (possibly updated) current scale.
    out.flow_ms = flow_timer.elapsed_ms();
    out.scale_used = st.current_scale;
  }

  // A key frame: its backbone, regression and cache refresh run in
  // serve_backbone, which needs the flow render as well as the image.
  f.needs_backbone = true;
  f.image = renderer_->render_at_scale(frame, st.current_scale, policy_);
  f.flow_gray = flow_gray(frame);
  return f;
}

}  // namespace ada
