#include "adascale/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tensor/image_ops.h"
#include "util/timer.h"

namespace ada {

/// Scoped model access for one frame.  With no pool bound, det()/reg()
/// pass through to the constructor-supplied models.  With a pool, the
/// first det()/reg() call acquires a lease and every later call within the
/// hold returns the SAME context (process() relies on detect() and the
/// following features() read hitting one instance); drop() releases it —
/// mandatory before a blocking DetectBackend call, after which the next
/// det()/reg() transparently re-acquires (possibly a different, but
/// bit-equivalent, context).
struct AdaScalePipeline::ModelLease {
  explicit ModelLease(AdaScalePipeline* p) : p_(p) {}
  ~ModelLease() { drop(); }
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
  void drop() {
    if (held_) {
      p_->pool_->release(lease_);
      lease_ = ModelPool::Lease{};
      held_ = false;
    }
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
  if (dff_enabled_) return process_dff(frame, /*backend=*/nullptr);

  AdaFrameOutput out;
  // A cap imposed between frames takes effect here, before the render.
  ctx_.target_scale = capped(ctx_.target_scale);
  out.scale_used = ctx_.target_scale;

  const Tensor image =
      renderer_->render_at_scale(frame, ctx_.target_scale, policy_);
  ModelLease m(this);
  out.detections = m.det()->detect(image);
  out.detect_ms = out.detections.forward_ms;

  // Regress t on the deep features of *this* frame; apply to the next.
  // Within one lease hold det() is stable, so features() reads the same
  // context detect() just ran on.
  out.regressed_t = m.reg()->predict(m.det()->features());
  out.regressor_ms = m.reg()->last_predict_ms();
  out.next_scale =
      decode_scale_target(out.regressed_t, ctx_.target_scale, sreg_);
  if (snap_to_set_) out.next_scale = sreg_.nearest(out.next_scale);
  out.next_scale = capped(out.next_scale);
  ctx_.target_scale = out.next_scale;
  return out;
}

AdaFrameOutput AdaScalePipeline::process_via(const Scene& frame,
                                             const DetectBackend& backend) {
  if (dff_enabled_) return process_dff(frame, &backend);

  AdaFrameOutput out;
  ctx_.target_scale = capped(ctx_.target_scale);
  out.scale_used = ctx_.target_scale;

  Tensor image = renderer_->render_at_scale(frame, ctx_.target_scale, policy_);
  DetectResult r = backend(std::move(image));
  out.detections = std::move(r.detections);
  out.detect_ms = r.detect_ms;
  out.regressed_t = r.regressed_t;
  out.regressor_ms = r.regressor_ms;
  out.next_scale =
      decode_scale_target(out.regressed_t, ctx_.target_scale, sreg_);
  if (snap_to_set_) out.next_scale = sreg_.nearest(out.next_scale);
  out.next_scale = capped(out.next_scale);
  ctx_.target_scale = out.next_scale;
  return out;
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

void AdaScalePipeline::refresh_key(const Scene& frame, Tensor image,
                                   const DetectBackend* backend,
                                   AdaFrameOutput* out, ModelLease* m) {
  DffStreamState& st = ctx_.dff;
  const int img_h = image.h(), img_w = image.w();
  // The downsample of the grayscale flow source to feature resolution waits
  // until the feature dimensions are known.
  const Tensor gray = flow_gray(frame);

  if (backend != nullptr) {
    // The backend may park this thread in a BatchScheduler queue waiting
    // for batch-mates; holding a pooled context across that wait could
    // starve the very streams the batch needs (leader deadlock), so the
    // lease is released first and re-acquired for the head pass below.
    m->drop();
    DetectResult r = (*backend)(std::move(image));
    if (r.features.size() == 0) {
      std::fprintf(stderr,
                   "AdaScalePipeline: DFF key frame served through a backend "
                   "that returned no features — run the BatchScheduler with "
                   "features_only (MultiStreamRunner::run_batched does this "
                   "automatically once set_dff is called)\n");
      std::abort();
    }
    st.key_features = std::move(r.features);
    out->detect_ms = r.detect_ms;
    if (dff_.adascale) {
      out->regressed_t = r.regressed_t;
      out->regressor_ms = r.regressor_ms;
    }
  } else {
    Timer backbone_timer;
    const Tensor& features = m->det()->forward(image);
    out->detect_ms = backbone_timer.elapsed_ms();
    st.key_features = features;
    if (dff_.adascale) {
      out->regressed_t = m->reg()->predict(st.key_features);
      out->regressor_ms = m->reg()->last_predict_ms();
    }
  }
  // The forward above already ran the heads on the detector's own
  // features; a backend's features still need them.
  const Tensor& head_input =
      backend != nullptr ? st.key_features : m->det()->features();

  st.key_gray = Tensor();
  bilinear_resize(gray, st.key_features.h(), st.key_features.w(),
                  &st.key_gray);
  st.prev_gray = st.key_gray;
  st.acc_flow_y = Tensor();
  st.acc_flow_x = Tensor();

  // Heads + decode run on the stream's own detector in BOTH execution modes
  // (the key features, not the backend's decode, are the input), through
  // the same plan steps, which is what makes batched serving bit-identical
  // to serial regardless of batch composition.
  Timer head_timer;
  out->detections = m->det()->detect_from_features(head_input, img_h, img_w);
  out->detect_ms += head_timer.elapsed_ms();

  if (dff_.adascale) {
    int next = decode_scale_target(out->regressed_t, st.current_scale, sreg_);
    if (snap_to_set_) next = sreg_.nearest(next);
    st.pending_scale = capped(next);
  }

  out->dff_key = true;
  st.has_key = true;
  st.since_key = 0;
}

AdaFrameOutput AdaScalePipeline::process_dff(const Scene& frame,
                                             const DetectBackend* backend) {
  DffStreamState& st = ctx_.dff;
  AdaFrameOutput out;
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
        return out;
      }
    }

    // A key was forced mid-warp; fall through to the key path, which
    // renders at the (possibly updated) current scale.
    out.flow_ms = flow_timer.elapsed_ms();
    out.scale_used = st.current_scale;
  }

  Tensor image = renderer_->render_at_scale(frame, st.current_scale, policy_);
  refresh_key(frame, std::move(image), backend, &out, &m);
  ++st.frame_index;
  out.next_scale = st.pending_scale;
  return out;
}

}  // namespace ada
