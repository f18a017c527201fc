// Traced replay: each served frame again, through the same public calls in
// the order AdaScalePipeline::process / process_dff make them, with the
// scale and key/warp decision the untraced run recorded.  The served
// detections must come back byte for byte, which is what makes the spans
// time the work the untraced run did.
#include <cmath>
#include <cstring>
#include <map>

#include "bench.h"
#include "tensor/image_ops.h"
#include "video/optical_flow.h"

namespace servebench {

using ada::AdaFrameOutput;
using ada::DetectionOutput;
using ada::Tensor;

namespace {

constexpr std::size_t kForwardProbes = 10;   // per scale
constexpr std::size_t kWarpProbeStride = 8;  // every 8th served frame

bool same_bytes(const void* a, const void* b, std::size_t n) {
  return std::memcmp(a, b, n) == 0;
}

bool same_float(float a, float b) { return same_bytes(&a, &b, sizeof a); }

bool same_detections(const DetectionOutput& a, const DetectionOutput& b) {
  if (a.image_h != b.image_h || a.image_w != b.image_w ||
      a.detections.size() != b.detections.size())
    return false;
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    const ada::Detection& x = a.detections[i];
    const ada::Detection& y = b.detections[i];
    if (x.class_id != y.class_id || x.probs.size() != y.probs.size() ||
        !same_bytes(&x.box, &y.box, sizeof x.box) ||
        !same_bytes(&x.score, &y.score, sizeof x.score) ||
        !same_bytes(x.probs.data(), y.probs.data(),
                    x.probs.size() * sizeof(float)) ||
        !same_bytes(x.delta.data(), y.delta.data(), sizeof x.delta) ||
        !same_bytes(&x.anchor, &y.anchor, sizeof x.anchor))
      return false;
  }
  return true;
}

/// The context pool the runner's streams lease from.
ada::ContextPool* serving_pool(Server* server) {
  return server->runner->model_table()->pool_for(
      server->det->execution_policy(), server->reg->execution_policy());
}

/// The per-stream DFF cache, as StreamContext keeps it.
struct DffState {
  bool has_key = false;
  int since_key = 0;
  Tensor key_features, key_gray, prev_gray, acc_flow_y, acc_flow_x;
};

/// Grayscale flow source of `scene`: the tiny dedicated render.
Tensor tiny_gray(const Server& s, const ada::Scene& scene, int flow_scale) {
  return ada::to_grayscale(s.harness->renderer().render_at_scale(
      scene, flow_scale, s.harness->dataset().scale_policy()));
}

/// Lazily leased context, held until the end of the frame (ModelLease).
class Lease {
 public:
  Lease(ada::ContextPool* pool, SpanRecorder* rec, long frame,
        bool probe = false)
      : pool_(pool), rec_(rec), frame_(frame), probe_(probe) {}
  ~Lease() {
    if (held_) pool_->release(lease_);
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  ada::Detector* det() {
    ensure();
    return lease_.detector;
  }
  ada::ScaleRegressor* reg() {
    ensure();
    return lease_.regressor;
  }

 private:
  void ensure() {
    if (held_) return;
    ScopedSpan span(rec_, "runtime.lease", frame_, 0, probe_);
    lease_ = pool_->acquire();
    held_ = true;
  }

  ada::ContextPool* pool_;
  SpanRecorder* rec_;
  long frame_;
  bool probe_;
  ada::ModelPool::Lease lease_;
  bool held_ = false;
};

class Replayer {
 public:
  Replayer(Server* s, const Workload& w, SpanRecorder* rec)
      : s_(s), w_(w), rec_(rec), pool_(serving_pool(s)) {}

  /// Replays one frame; returns an empty string when it reproduced.
  std::string frame(const ServedFrame& f, long id) {
    if (!w_.dff) return plain(f, id);
    DffState& st = dff_[f.stream];
    if (f.snippet_start) st = DffState{};
    return dff(f, id, &st);
  }

 private:
  const ada::ScalePolicy& policy() const {
    return s_->harness->dataset().scale_policy();
  }

  Tensor render(const ada::Scene& scene, int scale, long id) {
    ScopedSpan span(rec_, "data.render", id, scale);
    return s_->harness->renderer().render_at_scale(scene, scale, policy());
  }

  // AdaScalePipeline::process: render, lease, detect (forward + decode on
  // the frame's own features), predict on the same features.
  std::string plain(const ServedFrame& f, long id) {
    const AdaFrameOutput& out = *f.out;
    ScopedSpan frame_span(rec_, "frame", id, out.scale_used);
    const Tensor image = render(*f.scene, out.scale_used, id);
    Lease m(pool_, rec_, id);
    {
      ScopedSpan span(rec_, "detection.forward", id, out.scale_used);
      m.det()->forward(image);
    }
    DetectionOutput dets;
    {
      ScopedSpan span(rec_, "detection.decode", id, out.scale_used);
      dets = m.det()->detect_from_features(m.det()->features(), image.h(),
                                           image.w());
    }
    float t = 0.0f;
    {
      ScopedSpan span(rec_, "adascale.regressor", id, out.scale_used);
      t = m.reg()->predict(m.det()->features());
    }
    if (!same_detections(dets, out.detections)) return "detections differ";
    if (!same_float(t, out.regressed_t)) return "regressed t differs";
    return "";
  }

  // AdaScalePipeline::process_dff at the adaptive policy, taking the
  // key/warp decision from the recorded output.
  std::string dff(const ServedFrame& f, long id, DffState* st) {
    const AdaFrameOutput& out = *f.out;
    const ada::DffServingConfig& cfg = s_->dff;
    const int scale = out.scale_used;
    ScopedSpan frame_span(rec_, "frame", id, scale);
    Lease m(pool_, rec_, id);

    const bool attempt = st->has_key && st->since_key < cfg.max_interval;
    if (!attempt && !out.dff_key)
      return "served as a warp frame where the policy cannot warp";
    if (attempt) {
      // Warp attempt: tiny render, grayscale, incremental flow, residual
      // gate, feature warp.
      Tensor cur_gray, flow_y, flow_x, warped;
      float residual = 0.0f;
      {
        ScopedSpan span(rec_, "video.flow", id, scale);
        ada::bilinear_resize(tiny_gray(*s_, *f.scene, cfg.flow_render_scale),
                             st->key_features.h(), st->key_features.w(),
                             &cur_gray);
        if (cfg.incremental_flow && st->acc_flow_y.size() != 0) {
          Tensor step_y, step_x;
          ada::block_matching_flow(st->prev_gray, cur_gray, cfg.flow, &step_y,
                                   &step_x);
          ada::compose_flow(st->acc_flow_y, st->acc_flow_x, step_y, step_x,
                            &flow_y, &flow_x);
        } else {
          ada::block_matching_flow(st->key_gray, cur_gray, cfg.flow, &flow_y,
                                   &flow_x);
        }
        Tensor warped_gray;
        ada::bilinear_warp(st->key_gray, flow_y, flow_x, &warped_gray);
        double sum = 0.0;
        for (std::size_t i = 0; i < warped_gray.size(); ++i)
          sum += std::abs(static_cast<double>(warped_gray[i]) - cur_gray[i]);
        residual =
            static_cast<float>(sum / static_cast<double>(warped_gray.size()));
        if (!(residual > cfg.residual_threshold))
          ada::bilinear_warp(st->key_features, flow_y, flow_x, &warped);
      }
      if (!same_float(residual, out.warp_residual))
        return "warp residual differs";
      const bool residual_key = residual > cfg.residual_threshold;
      if (residual_key && !out.dff_key)
        return "residual forces a key on a frame served as a warp frame";
      float t = 0.0f;
      if (!residual_key && cfg.adascale && cfg.scale_jump_frac > 0.0f) {
        ScopedSpan span(rec_, "adascale.regressor", id, scale);
        t = m.reg()->predict(warped);
      }
      if (!out.dff_key) {
        st->prev_gray = std::move(cur_gray);
        st->acc_flow_y = std::move(flow_y);
        st->acc_flow_x = std::move(flow_x);
        ++st->since_key;
        DetectionOutput dets;
        {
          ScopedSpan span(rec_, "detection.warp_heads", id, scale);
          dets = m.det()->detect_from_features(warped, policy().render_h(scale),
                                               policy().render_w(scale));
        }
        if (!same_detections(dets, out.detections))
          return "warp-frame detections differ";
        if (!same_float(t, out.regressed_t)) return "regressed t differs";
        return "";
      }
    }

    // Key frame (AdaScalePipeline::refresh_key): full render, flow source,
    // backbone, regressor on the cached copy, heads + decode on the copy.
    const Tensor image = render(*f.scene, scale, id);
    Tensor gray;
    {
      ScopedSpan span(rec_, "video.key_gray", id, scale);
      gray = tiny_gray(*s_, *f.scene, cfg.flow_render_scale);
    }
    {
      ScopedSpan span(rec_, "detection.forward", id, scale);
      st->key_features = m.det()->forward(image);
    }
    float t = 0.0f;
    if (cfg.adascale) {
      ScopedSpan span(rec_, "adascale.regressor", id, scale);
      t = m.reg()->predict(st->key_features);
    }
    {
      ScopedSpan span(rec_, "video.key_gray", id, scale);
      st->key_gray = Tensor();
      ada::bilinear_resize(gray, st->key_features.h(), st->key_features.w(),
                           &st->key_gray);
    }
    st->prev_gray = st->key_gray;
    st->acc_flow_y = Tensor();
    st->acc_flow_x = Tensor();
    st->has_key = true;
    st->since_key = 0;
    DetectionOutput dets;
    {
      ScopedSpan span(rec_, "detection.decode", id, scale);
      dets = m.det()->detect_from_features(st->key_features, image.h(),
                                           image.w());
    }
    if (!same_detections(dets, out.detections))
      return "key-frame detections differ";
    if (cfg.adascale && !same_float(t, out.regressed_t))
      return "regressed t differs";
    return "";
  }

  Server* s_;
  const Workload& w_;
  SpanRecorder* rec_;
  ada::ContextPool* pool_;
  std::map<int, DffState> dff_;
};

}  // namespace

bool same_output(const AdaFrameOutput& a, const AdaFrameOutput& b) {
  return a.scale_used == b.scale_used && a.next_scale == b.next_scale &&
         a.dff == b.dff && a.dff_key == b.dff_key &&
         same_float(a.regressed_t, b.regressed_t) &&
         same_float(a.warp_residual, b.warp_residual) &&
         same_detections(a.detections, b.detections);
}

ReplayResult replay(Server* server, const Workload& w,
                    const std::vector<ServedFrame>& order, SpanRecorder* rec) {
  ReplayResult result;
  Replayer replayer(server, w, rec);
  std::map<int, double> stream_free_ms;  // end of each stream's last frame
  const std::size_t first_span = rec->spans().size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ServedFrame& f = order[i];
    const long id = static_cast<long>(i);
    const std::size_t root = rec->spans().size();
    const std::string why = replayer.frame(f, id);
    const Span& span = rec->spans()[root];
    const auto free_it = stream_free_ms.find(f.stream);
    const double ready =
        free_it != stream_free_ms.end()
            ? free_it->second
            : rec->spans()[first_span].start_ms;
    result.ready_wait_ms.push_back(span.start_ms - ready);
    stream_free_ms[f.stream] = span.end_ms;
    result.frame_ms += span.dur_ms();
    ++result.frames;
    if (!why.empty() && result.reproduced) {
      result.reproduced = false;
      result.mismatch = "stream " + std::to_string(f.stream) + " frame " +
                        std::to_string(f.seq) + ": " + why;
    }
  }
  return result;
}

void probe_layers(Server* server, const Workload& w,
                  const std::vector<ServedFrame>& order, SpanRecorder* rec) {
  ada::ContextPool* pool = serving_pool(server);
  const ada::Renderer& renderer = server->harness->renderer();
  const ada::ScalePolicy& policy = server->harness->dataset().scale_policy();
  const std::size_t n = order.size();
  for (int scale : ada::ScaleSet::reg_default().scales) {
    for (std::size_t i = 0; i < kForwardProbes; ++i) {
      const Tensor image = renderer.render_at_scale(
          *order[i * n / kForwardProbes].scene, scale, policy);
      Lease m(pool, rec, -1, /*probe=*/true);
      ada::Detector* det = m.det();
      ScopedSpan span(rec, "detection.forward", -1, scale, /*probe=*/true);
      det->forward(image);
    }
  }
  if (w.dff) return;
  // What a DFF warp frame runs, on the features of a served frame and the
  // next frame of its snippet: flow (first warp after a key), feature warp,
  // heads.
  const ada::DffServingConfig cfg;
  for (std::size_t i = 0; i < n; i += kWarpProbeStride) {
    const ServedFrame& f = order[i];
    if (f.next_scene == nullptr) continue;
    const int scale = f.out->scale_used;
    const long id = static_cast<long>(i);
    const Tensor image = renderer.render_at_scale(*f.scene, scale, policy);
    Lease m(pool, rec, id, /*probe=*/true);
    const Tensor& features = m.det()->forward(image);
    Tensor key_gray;
    ada::bilinear_resize(tiny_gray(*server, *f.scene, cfg.flow_render_scale),
                         features.h(), features.w(), &key_gray);
    Tensor warped;
    {
      ScopedSpan span(rec, "video.flow", id, scale, /*probe=*/true);
      Tensor cur_gray, flow_y, flow_x, warped_gray;
      ada::bilinear_resize(
          tiny_gray(*server, *f.next_scene, cfg.flow_render_scale),
          features.h(), features.w(), &cur_gray);
      ada::block_matching_flow(key_gray, cur_gray, cfg.flow, &flow_y, &flow_x);
      ada::bilinear_warp(key_gray, flow_y, flow_x, &warped_gray);
      ada::bilinear_warp(features, flow_y, flow_x, &warped);
    }
    ScopedSpan span(rec, "detection.warp_heads", id, scale, /*probe=*/true);
    m.det()->detect_from_features(warped, image.h(), image.w());
  }
}

}  // namespace servebench
