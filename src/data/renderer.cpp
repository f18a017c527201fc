#include "data/renderer.h"

#include <algorithm>
#include <cmath>

#include "runtime/thread_pool.h"

namespace ada {

namespace {

float smoothstep(float e0, float e1, float x) {
  float t = std::clamp((x - e0) / (e1 - e0), 0.0f, 1.0f);
  return t * t * (3.0f - 2.0f * t);
}

/// Signed "inside-ness" of shapes in object-local coordinates (u,v) in
/// [-1,1]^2; >0 inside, <=0 outside, magnitude ~ distance to the boundary in
/// local units.
float shape_field(Shape shape, float u, float v) {
  switch (shape) {
    case Shape::kEllipse:
      return 1.0f - std::sqrt(u * u + v * v);
    case Shape::kRectangle:
      return std::min(1.0f - std::fabs(u), 0.85f - std::fabs(v));
    case Shape::kTriangle:
      // Apex up: inside when v <= 1 - 2|u| and v >= -0.9.
      return std::min((1.0f - 2.0f * std::fabs(u) - v) * 0.5f, v + 0.9f);
    case Shape::kDiamond:
      return 1.0f - (std::fabs(u) + std::fabs(v));
    case Shape::kRing: {
      float r = std::sqrt(u * u + v * v);
      return std::min(1.0f - r, r - 0.45f);
    }
    case Shape::kCross: {
      float bar_h = std::min(1.0f - std::fabs(u), 0.35f - std::fabs(v));
      float bar_v = std::min(0.35f - std::fabs(u), 1.0f - std::fabs(v));
      return std::max(bar_h, bar_v);
    }
    default:
      return -1.0f;
  }
}

/// Texture mixing factor in [0,1]: 0 = base color, 1 = accent color.
float texture_field(TexturePattern tex, float u, float v, float freq,
                    float phase) {
  constexpr float kPi = 3.14159265358979f;
  switch (tex) {
    case TexturePattern::kSolid:
      return 0.0f;
    case TexturePattern::kHStripes:
      return std::sin(freq * kPi * v + phase) > 0.0f ? 1.0f : 0.0f;
    case TexturePattern::kVStripes:
      return std::sin(freq * kPi * u + phase) > 0.0f ? 1.0f : 0.0f;
    case TexturePattern::kChecker: {
      float a = std::sin(freq * kPi * u + phase);
      float b = std::sin(freq * kPi * v + phase);
      return a * b > 0.0f ? 1.0f : 0.0f;
    }
    case TexturePattern::kDots: {
      float fu = freq * u + phase;
      float fv = freq * v + phase;
      float du = fu - std::round(fu);
      float dv = fv - std::round(fv);
      return (du * du + dv * dv) < 0.09f ? 1.0f : 0.0f;
    }
    default:
      return 0.0f;
  }
}

struct Pixel {
  float r, g, b;
};

/// Pixel-footprint attenuation: a pattern with `cycles_per_pixel` at the
/// current sampling density integrates toward its mean over the pixel area.
/// Gaussian falloff approximates the sinc of box integration; at the Nyquist
/// limit (0.5 cycles/px) contrast is ~60%, one cycle/px ~14%.  This is what
/// makes fine detail (clutter textures, background waves) wash out at small
/// rendering scales — the effect AdaScale exploits to kill false positives.
float footprint_attenuation(float cycles_per_pixel) {
  return std::exp(-2.0f * cycles_per_pixel * cycles_per_pixel);
}

/// Mean value of a texture pattern (what it fades to when unresolvable).
float texture_mean(TexturePattern tex) {
  switch (tex) {
    case TexturePattern::kSolid:
      return 0.0f;
    case TexturePattern::kDots:
      return 0.2827f;  // pi * 0.3^2
    default:
      return 0.5f;  // stripes / checker
  }
}

/// A background wave with everything that does not depend on the pixel
/// evaluated once per render.  Waves the footprint attenuates below 1e-3
/// are dropped here instead of per pixel.
struct PreparedWave {
  float ca = 0.0f, sa = 0.0f;  ///< cos / sin of the wave angle
  float k = 0.0f;              ///< 6.2831853f * freq
  float phase = 0.0f;
  float gain = 0.0f;           ///< attenuation * amplitude
};

/// Pixels [begin, end) along one image axis.
struct PixelSpan {
  int begin = 0, end = 0;
};

/// A painted instance with its per-render constants, plus the pixel window
/// its bounding circle can reach (see reach_span).
struct PreparedInstance {
  const ObjectInstance* obj = nullptr;
  const ClassSignature* sig = nullptr;
  float reach2 = 0.0f;         ///< squared bounding-circle radius
  float ca = 0.0f, sa = 0.0f;  ///< cos / sin of the instance angle
  float su = 0.0f, sv = 0.0f;  ///< size * sqrt(aspect), size / sqrt(aspect)
  float edge = 0.0f;           ///< AA ramp width in local units
  float t_mean = 0.0f;         ///< texture mean
  float t_atten = 0.0f;        ///< texture footprint attenuation
  PixelSpan rows, cols;
};

/// Pixels [begin, end) of an axis of `n` pixels, `per_world` pixels per world
/// unit, whose centers lie within `reach` of world coordinate `center`.  The
/// window is widened by 2 px plus a relative margin far above float rounding,
/// so it holds every pixel the per-pixel bounding-circle test can accept and
/// that test alone still decides each one.  A non-finite extent keeps the
/// whole axis, as the per-pixel test would.
PixelSpan reach_span(float center, float reach, int per_world, int n) {
  const double c = center;
  const double r = std::fabs(static_cast<double>(reach));
  const double slack = 2.0 + (std::fabs(c) + r) * per_world * 1e-6;
  const double lo = std::floor((c - r) * per_world - 0.5 - slack);
  const double hi = std::ceil((c + r) * per_world - 0.5 + slack);
  if (std::isnan(lo) || std::isnan(hi)) return {0, n};
  const double top = static_cast<double>(n);
  return {static_cast<int>(std::clamp(lo, 0.0, top)),
          static_cast<int>(std::clamp(hi + 1.0, 0.0, top))};
}

}  // namespace

Tensor Renderer::render(const Scene& scene, int h, int w) const {
  Tensor img(1, 3, h, w);
  const float inv_scale = 1.0f / static_cast<float>(h);
  // Anti-alias width: one pixel footprint in world units.
  const float aa_world = inv_scale;

  std::vector<PreparedWave> waves;
  waves.reserve(scene.background.waves.size());
  for (const Background::Wave& wv : scene.background.waves) {
    const float atten = footprint_attenuation(wv.freq * aa_world);
    if (atten < 1e-3f) continue;
    waves.push_back({std::cos(wv.angle), std::sin(wv.angle),
                     6.2831853f * wv.freq, wv.phase, atten * wv.amplitude});
  }

  // Paint order: background, then clutter, then objects (objects occlude
  // clutter; later objects occlude earlier ones).
  std::vector<PreparedInstance> paint;
  paint.reserve(scene.clutter.size() + scene.objects.size());
  auto prepare = [&](const ObjectInstance& obj) {
    PreparedInstance p;
    p.obj = &obj;
    p.sig = &catalog_->at(obj.class_id);
    const float reach = obj.size * (obj.aspect > 1.0f
                                        ? std::sqrt(obj.aspect)
                                        : 1.0f / std::sqrt(obj.aspect)) *
                        1.5f;
    p.reach2 = reach * reach;
    p.ca = std::cos(obj.angle);
    p.sa = std::sin(obj.angle);
    const float a = std::sqrt(obj.aspect);
    p.su = obj.size * a;
    p.sv = obj.size / a;
    // Convert local-unit field to world units (approx) for AA width.
    const float aa_local = aa_world / std::max(obj.size, 1e-4f);
    p.edge = aa_local * 1.5f;
    // Texture fades toward its mean when its cycles are sub-pixel:
    // sin(freq*pi*u) has freq/2 cycles per local unit, and one pixel
    // spans aa_local local units.
    p.t_mean = texture_mean(p.sig->texture);
    p.t_atten = footprint_attenuation(0.5f * p.sig->texture_freq * aa_local);
    p.rows = reach_span(obj.cy, reach, h, h);
    p.cols = reach_span(obj.cx, reach, h, w);
    paint.push_back(p);
  };
  for (const auto& c : scene.clutter) prepare(c);
  for (const auto& o : scene.objects) prepare(o);

  const Background& bg = scene.background;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  // Rows are independent (each writes only its own pixels of the three
  // channel planes), so they fan out across the runtime pool.  Each pixel
  // is composited in paint order exactly as a per-pixel loop would: the
  // three planes hold the unclamped color until the row is done.
  parallel_for(h, 8, [&](std::int64_t ib, std::int64_t ie) {
  for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
    float* out_r = img.data() + static_cast<std::size_t>(i) * w;
    float* out_g = out_r + plane;
    float* out_b = out_g + plane;
    const float wy = (static_cast<float>(i) + 0.5f) * inv_scale;
    const float base_r = bg.base.r + bg.gradient.r * wy;
    const float base_g = bg.base.g + bg.gradient.g * wy;
    const float base_b = bg.base.b + bg.gradient.b * wy;
    for (int j = 0; j < w; ++j) {
      const float wx = (static_cast<float>(j) + 0.5f) * inv_scale;
      Pixel px{base_r, base_g, base_b};
      for (const PreparedWave& wv : waves) {
        const float axis = wx * wv.ca + wy * wv.sa;
        const float v = wv.gain * std::sin(wv.k * axis + wv.phase);
        px.r += v;
        px.g += v * 0.8f;
        px.b += v * 1.2f;
      }
      out_r[j] = px.r;
      out_g[j] = px.g;
      out_b[j] = px.b;
    }

    for (const PreparedInstance& p : paint) {
      if (i < p.rows.begin || i >= p.rows.end) continue;
      const ObjectInstance& obj = *p.obj;
      const ClassSignature& sig = *p.sig;
      const float dy = wy - obj.cy;
      for (int j = p.cols.begin; j < p.cols.end; ++j) {
        const float wx = (static_cast<float>(j) + 0.5f) * inv_scale;
        // Cheap reject on the bounding circle.
        const float dx = wx - obj.cx;
        if (dx * dx + dy * dy > p.reach2) continue;

        // World -> object-local coordinates.
        const float rx = dx * p.ca + dy * p.sa;
        const float ry = -dx * p.sa + dy * p.ca;
        const float u = rx / p.su;
        const float v = ry / p.sv;

        const float field = shape_field(sig.shape, u, v);
        const float alpha = smoothstep(0.0f, p.edge, field);
        if (alpha <= 0.0f) continue;

        const float raw_t = texture_field(sig.texture, u, v, sig.texture_freq,
                                          obj.texture_phase);
        const float t = p.t_mean + (raw_t - p.t_mean) * p.t_atten;
        const float br = obj.brightness;
        const float cr =
            (sig.color.r * (1.0f - t) + sig.accent.r * t) * br + obj.tint.r;
        const float cg =
            (sig.color.g * (1.0f - t) + sig.accent.g * t) * br + obj.tint.g;
        const float cb =
            (sig.color.b * (1.0f - t) + sig.accent.b * t) * br + obj.tint.b;
        out_r[j] = out_r[j] * (1.0f - alpha) + cr * alpha;
        out_g[j] = out_g[j] * (1.0f - alpha) + cg * alpha;
        out_b[j] = out_b[j] * (1.0f - alpha) + cb * alpha;
      }
    }

    for (int j = 0; j < w; ++j) {
      out_r[j] = std::clamp(out_r[j], 0.0f, 1.0f);
      out_g[j] = std::clamp(out_g[j], 0.0f, 1.0f);
      out_b[j] = std::clamp(out_b[j], 0.0f, 1.0f);
    }
  }
  });
  return img;
}

Tensor Renderer::render_at_scale(const Scene& scene, int nominal_scale,
                                 const ScalePolicy& policy) const {
  return render(scene, policy.render_h(nominal_scale),
                policy.render_w(nominal_scale));
}

}  // namespace ada
