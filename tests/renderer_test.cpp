#include "data/renderer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "adascale/scale_set.h"
#include "data/dataset.h"

namespace ada {
namespace {

Scene one_object_scene(int class_id, float cx, float cy, float size) {
  Scene scene;
  ObjectInstance o;
  o.class_id = class_id;
  o.cx = cx;
  o.cy = cy;
  o.size = size;
  scene.objects.push_back(o);
  return scene;
}

TEST(Renderer, OutputShapeAndRange) {
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  const Tensor img = r.render(one_object_scene(0, 0.6f, 0.5f, 0.2f), 60, 80);
  EXPECT_EQ(img.n(), 1);
  EXPECT_EQ(img.c(), 3);
  EXPECT_EQ(img.h(), 60);
  EXPECT_EQ(img.w(), 80);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_GE(img[i], 0.0f);
    EXPECT_LE(img[i], 1.0f);
  }
}

TEST(Renderer, Deterministic) {
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  const Scene s = one_object_scene(3, 0.5f, 0.5f, 0.25f);
  const Tensor a = r.render(s, 48, 64);
  const Tensor b = r.render(s, 48, 64);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Renderer, ObjectChangesPixels) {
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  Scene empty;
  Scene with = one_object_scene(0, 0.6f, 0.5f, 0.3f);
  with.background = empty.background;
  const Tensor a = r.render(empty, 48, 64);
  const Tensor b = r.render(with, 48, 64);
  double diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 10.0);
}

TEST(Renderer, ObjectCenterPixelHasObjectColor) {
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  // Class 0 is an ellipse with solid-ish texture near center.
  const Scene s = one_object_scene(0, 0.667f, 0.5f, 0.3f);
  const Tensor img = r.render(s, 96, 128);
  const ClassSignature& sig = cat.at(0);
  // Sample the exact object center.
  const int ci = 48, cj = 85;  // cy*96=48, cx*96=64... (cx in world*h units)
  (void)cj;
  const float px = img.at(0, 0, ci, static_cast<int>(0.667f * 96));
  // Either base or accent color channel r.
  const bool matches = std::abs(px - sig.color.r) < 0.25f ||
                       std::abs(px - sig.accent.r) < 0.25f;
  EXPECT_TRUE(matches) << "center pixel " << px << " vs color " << sig.color.r;
}

TEST(Renderer, GroundTruthBoxCoversObject) {
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  const Scene s = one_object_scene(1, 0.6f, 0.5f, 0.2f);
  const auto gts = scene_ground_truth(s, 90, 120);
  ASSERT_EQ(gts.size(), 1u);
  const GtBox& g = gts[0];
  EXPECT_EQ(g.class_id, 1);
  // Center in pixels: (0.6*90, 0.5*90) = (54, 45).
  EXPECT_LT(g.x1, 54.0f);
  EXPECT_GT(g.x2, 54.0f);
  EXPECT_LT(g.y1, 45.0f);
  EXPECT_GT(g.y2, 45.0f);
  // Size ~ 2*0.2*90 = 36 px per side (modulo aspect/rotation).
  EXPECT_NEAR(g.width(), 36.0f, 12.0f);
}

TEST(Renderer, GroundTruthScalesLinearly) {
  const Scene s = one_object_scene(2, 0.5f, 0.5f, 0.15f);
  const auto g1 = scene_ground_truth(s, 60, 80);
  const auto g2 = scene_ground_truth(s, 120, 160);
  ASSERT_EQ(g1.size(), 1u);
  ASSERT_EQ(g2.size(), 1u);
  EXPECT_NEAR(g2[0].x1, 2.0f * g1[0].x1, 1.5f);
  EXPECT_NEAR(g2[0].width(), 2.0f * g1[0].width(), 2.0f);
}

TEST(Renderer, TinyObjectDroppedFromGt) {
  const Scene s = one_object_scene(0, 0.5f, 0.5f, 0.001f);
  EXPECT_TRUE(scene_ground_truth(s, 60, 80).empty());
}

TEST(Renderer, OffscreenObjectDropped) {
  Scene s = one_object_scene(0, 5.0f, 5.0f, 0.1f);  // far outside
  const auto gts = scene_ground_truth(s, 60, 80);
  EXPECT_TRUE(gts.empty());
}

TEST(Renderer, ClutterIsNotInGroundTruth) {
  Scene s = one_object_scene(0, 0.5f, 0.5f, 0.2f);
  ObjectInstance c;
  c.class_id = 1;
  c.cx = 0.3f;
  c.cy = 0.3f;
  c.size = 0.02f;
  s.clutter.push_back(c);
  const auto gts = scene_ground_truth(s, 90, 120);
  EXPECT_EQ(gts.size(), 1u);
}

TEST(Renderer, ScalePolicyMapsNominalScales) {
  ScalePolicy p;
  EXPECT_EQ(p.render_h(600), 150);
  EXPECT_EQ(p.render_h(480), 120);
  EXPECT_EQ(p.render_h(360), 90);
  EXPECT_EQ(p.render_h(240), 60);
  EXPECT_EQ(p.render_h(128), 32);
  EXPECT_EQ(p.render_w(600), 200);
}

TEST(Renderer, RenderAtScaleUsesPolicy) {
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  ScalePolicy p;
  const Tensor img =
      r.render_at_scale(one_object_scene(0, 0.5f, 0.5f, 0.2f), 240, p);
  EXPECT_EQ(img.h(), 60);
  EXPECT_EQ(img.w(), 80);
}

TEST(Renderer, FineDetailFadesAtLowResolution) {
  // High-frequency background waves must have lower contrast when rendered
  // small relative to the wave period — the effect driving FP reduction.
  ClassCatalog cat = ClassCatalog::synth_vid();
  Renderer r(&cat);
  Scene s;
  Background::Wave w;
  w.freq = 30.0f;  // 30 cycles per world unit
  w.amplitude = 0.2f;
  s.background.waves.push_back(w);

  auto contrast = [&](int h, int wpx) {
    const Tensor img = r.render(s, h, wpx);
    float mn = 1e9f, mx = -1e9f;
    for (int i = 0; i < img.h(); ++i)
      for (int j = 0; j < img.w(); ++j) {
        mn = std::min(mn, img.at(0, 0, i, j));
        mx = std::max(mx, img.at(0, 0, i, j));
      }
    return mx - mn;
  };
  // At 150px the 30-cycle wave is resolvable (5 px/cycle); at 32px it
  // aliases/averages out (about 1 px/cycle).  Sampling the analytic field
  // keeps some contrast, so require a clear reduction rather than zero.
  EXPECT_GT(contrast(150, 200), 0.25f);
  // No hard bound for the small render, but it must not *increase*.
  EXPECT_LE(contrast(32, 43), contrast(150, 200) + 1e-3f);
}


// ------------------------------------------------------------ byte oracle
//
// Rendered bytes are a contract: training labels, model caches, calibration
// sets and DFF flow sources all consume them.  This is the straightforward
// per-pixel renderer, kept verbatim as the reference that Renderer::render
// (per-render constants, instances visited only where their bounding circle
// reaches) must reproduce byte for byte.

namespace oracle {

float smoothstep(float e0, float e1, float x) {
  float t = std::clamp((x - e0) / (e1 - e0), 0.0f, 1.0f);
  return t * t * (3.0f - 2.0f * t);
}

float shape_field(Shape shape, float u, float v) {
  switch (shape) {
    case Shape::kEllipse:
      return 1.0f - std::sqrt(u * u + v * v);
    case Shape::kRectangle:
      return std::min(1.0f - std::fabs(u), 0.85f - std::fabs(v));
    case Shape::kTriangle:
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

float footprint_attenuation(float cycles_per_pixel) {
  return std::exp(-2.0f * cycles_per_pixel * cycles_per_pixel);
}

float texture_mean(TexturePattern tex) {
  switch (tex) {
    case TexturePattern::kSolid:
      return 0.0f;
    case TexturePattern::kDots:
      return 0.2827f;
    default:
      return 0.5f;
  }
}

Pixel background_color(const Background& bg, float wx, float wy,
                       float pixel_world) {
  Pixel p{bg.base.r + bg.gradient.r * wy, bg.base.g + bg.gradient.g * wy,
          bg.base.b + bg.gradient.b * wy};
  for (const Background::Wave& w : bg.waves) {
    const float atten = footprint_attenuation(w.freq * pixel_world);
    if (atten < 1e-3f) continue;
    float axis = wx * std::cos(w.angle) + wy * std::sin(w.angle);
    float v = atten * w.amplitude *
              std::sin(6.2831853f * w.freq * axis + w.phase);
    p.r += v;
    p.g += v * 0.8f;
    p.b += v * 1.2f;
  }
  return p;
}

Tensor render(const ClassCatalog& catalog, const Scene& scene, int h, int w) {
  Tensor img(1, 3, h, w);
  const float inv_scale = 1.0f / static_cast<float>(h);
  const float aa_world = inv_scale;
  std::vector<const ObjectInstance*> paint;
  for (const auto& c : scene.clutter) paint.push_back(&c);
  for (const auto& o : scene.objects) paint.push_back(&o);
  for (int i = 0; i < h; ++i) {
    const float wy = (static_cast<float>(i) + 0.5f) * inv_scale;
    for (int j = 0; j < w; ++j) {
      const float wx = (static_cast<float>(j) + 0.5f) * inv_scale;
      Pixel px = background_color(scene.background, wx, wy, aa_world);
      for (const ObjectInstance* obj : paint) {
        const float dx = wx - obj->cx;
        const float dy = wy - obj->cy;
        const float reach = obj->size * (obj->aspect > 1.0f
                                             ? std::sqrt(obj->aspect)
                                             : 1.0f / std::sqrt(obj->aspect)) *
                            1.5f;
        if (dx * dx + dy * dy > reach * reach) continue;
        const ClassSignature& sig = catalog.at(obj->class_id);
        const float ca = std::cos(obj->angle);
        const float sa = std::sin(obj->angle);
        const float rx = dx * ca + dy * sa;
        const float ry = -dx * sa + dy * ca;
        const float a = std::sqrt(obj->aspect);
        const float u = rx / (obj->size * a);
        const float v = ry / (obj->size / a);
        const float field = shape_field(sig.shape, u, v);
        const float aa_local = aa_world / std::max(obj->size, 1e-4f);
        const float alpha = smoothstep(0.0f, aa_local * 1.5f, field);
        if (alpha <= 0.0f) continue;
        const float raw_t = texture_field(sig.texture, u, v, sig.texture_freq,
                                          obj->texture_phase);
        const float t_mean = texture_mean(sig.texture);
        const float t = t_mean + (raw_t - t_mean) *
                                     footprint_attenuation(
                                         0.5f * sig.texture_freq * aa_local);
        const float br = obj->brightness;
        const float cr =
            (sig.color.r * (1.0f - t) + sig.accent.r * t) * br + obj->tint.r;
        const float cg =
            (sig.color.g * (1.0f - t) + sig.accent.g * t) * br + obj->tint.g;
        const float cb =
            (sig.color.b * (1.0f - t) + sig.accent.b * t) * br + obj->tint.b;
        px.r = px.r * (1.0f - alpha) + cr * alpha;
        px.g = px.g * (1.0f - alpha) + cg * alpha;
        px.b = px.b * (1.0f - alpha) + cb * alpha;
      }
      img.at(0, 0, i, j) = std::clamp(px.r, 0.0f, 1.0f);
      img.at(0, 1, i, j) = std::clamp(px.g, 0.0f, 1.0f);
      img.at(0, 2, i, j) = std::clamp(px.b, 0.0f, 1.0f);
    }
  }
  return img;
}

}  // namespace oracle

/// Renders `scene` at h x w with both renderers; true when the bytes match.
bool matches_oracle(const ClassCatalog& catalog, const Scene& scene, int h,
                    int w) {
  const Tensor got = Renderer(&catalog).render(scene, h, w);
  const Tensor want = oracle::render(catalog, scene, h, w);
  return got.same_shape(want) &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0;
}

/// Every S_reg scale, the DFF flow-source scale 96 (24 x 32 px) and one odd
/// size, as (h, w).
std::vector<std::pair<int, int>> oracle_sizes(const ScalePolicy& policy) {
  std::vector<std::pair<int, int>> sizes;
  for (int s : ScaleSet::reg_default().scales)
    sizes.emplace_back(policy.render_h(s), policy.render_w(s));
  sizes.emplace_back(policy.render_h(96), policy.render_w(96));
  sizes.emplace_back(37, 53);
  return sizes;
}

void expect_dataset_matches_oracle(const Dataset& ds) {
  const std::vector<const Scene*> frames = ds.val_frames();
  ASSERT_GE(frames.size(), 8u);
  for (const auto& [h, w] : oracle_sizes(ds.scale_policy()))
    for (std::size_t f = 0; f < frames.size(); f += frames.size() / 8)
      EXPECT_TRUE(matches_oracle(ds.catalog(), *frames[f], h, w))
          << ds.name() << " frame " << f << " at " << h << "x" << w;
}

TEST(RendererOracle, SynthVidScenesMatchByteForByte) {
  const Dataset ds = Dataset::synth_vid(0, 3, 11);
  expect_dataset_matches_oracle(ds);
}

TEST(RendererOracle, SynthYtbbScenesMatchByteForByte) {
  const Dataset ds = Dataset::synth_ytbb(0, 3, 12);
  ASSERT_EQ(ds.val_frames()[0]->clutter.size(), 14u);
  ASSERT_EQ(ds.val_frames()[0]->background.waves.size(), 8u);
  expect_dataset_matches_oracle(ds);
}

TEST(RendererOracle, HandBuiltEdgeCasesMatchByteForByte) {
  const ClassCatalog cat = ClassCatalog::synth_vid();
  auto instance = [](int class_id, float cx, float cy, float size) {
    ObjectInstance o;
    o.class_id = class_id;
    o.cx = cx;
    o.cy = cy;
    o.size = size;
    o.texture_phase = 0.3f;
    return o;
  };
  std::vector<std::pair<std::string, Scene>> cases;
  auto add = [&](const std::string& name, std::vector<ObjectInstance> objs) {
    Scene s;
    s.objects = std::move(objs);
    cases.emplace_back(name, std::move(s));
  };
  add("straddles left", {instance(0, 0.02f, 0.5f, 0.2f)});
  add("straddles right", {instance(1, kAspect - 0.03f, 0.4f, 0.25f)});
  add("straddles top", {instance(2, 0.6f, 0.01f, 0.15f)});
  add("straddles bottom", {instance(3, 0.7f, 0.99f, 0.3f)});
  add("straddles a corner", {instance(4, kAspect, 1.0f, 0.2f)});
  add("fully off-screen", {instance(5, 5.0f, 5.0f, 0.1f),
                           instance(6, -0.4f, 0.5f, 0.1f)});
  ObjectInstance thin = instance(7, 0.5f, 0.5f, 0.1f);
  thin.aspect = 0.2f;
  ObjectInstance wide = instance(8, 0.8f, 0.4f, 0.1f);
  wide.aspect = 5.0f;
  add("aspect 0.2 and 5", {thin, wide});
  ObjectInstance rotated = instance(9, 0.66f, 0.5f, 0.3f);
  rotated.aspect = 1.7f;
  rotated.angle = 3.14159265358979f / 3.0f;
  add("rotated by pi/3", {rotated});
  add("smaller than 1e-4", {instance(10, 0.5f, 0.5f, 5e-5f)});
  add("negative size", {instance(11, 0.4f, 0.6f, -0.12f)});
  // Overlaps exercise paint order: clutter first, then objects in order.
  Scene overlap;
  overlap.clutter.push_back(instance(12, 0.6f, 0.5f, 0.25f));
  overlap.objects = {instance(13, 0.65f, 0.5f, 0.2f),
                     instance(14, 0.7f, 0.55f, 0.15f)};
  cases.emplace_back("overlapping paint order", overlap);
  // A wave too fine for scale 128 (h = 32): its footprint attenuation there
  // is about 4e-6, below the 1e-3 cut, while scale 600 still draws it.
  Scene waves;
  Background::Wave fine;
  fine.freq = 80.0f;
  fine.angle = 0.4f;
  fine.amplitude = 0.2f;
  Background::Wave coarse;
  coarse.freq = 3.0f;
  coarse.angle = -1.1f;
  coarse.phase = 0.7f;
  waves.background.waves = {fine, coarse};
  cases.emplace_back("wave below 1e-3 at s128", waves);

  const ScalePolicy policy;
  for (const auto& [name, scene] : cases)
    for (const auto& [h, w] : oracle_sizes(policy))
      EXPECT_TRUE(matches_oracle(cat, scene, h, w))
          << name << " at " << h << "x" << w;
}

}  // namespace
}  // namespace ada
