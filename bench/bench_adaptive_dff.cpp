// Extension bench: flow-quality-triggered key frames (adaptive DFF) vs the
// fixed-interval DFF of the paper's Fig. 7, both with and without AdaScale.
//
// Expected shape: on quiet clips adaptive DFF stretches key intervals beyond
// the fixed schedule (faster at similar mAP); on fast-changing clips it
// refreshes sooner (more accurate at similar cost).  AdaScale composes with
// either scheduler.  This goes beyond the AdaScale paper (its related-work
// Sec. 2.2, "Both" — cf. Zhu et al. 2018a).
#include <cstdio>

#include "experiments/harness.h"
#include "util/table.h"

using namespace ada;

namespace {

/// Fraction of frames that ran the backbone.
double key_share(const std::vector<SnippetRun>& runs) {
  long keys = 0, frames = 0;
  for (const SnippetRun& run : runs) {
    for (bool key : run.frame_keys) keys += key ? 1 : 0;
    frames += static_cast<long>(run.frame_keys.size());
  }
  return frames > 0 ? static_cast<double>(keys) / frames : 0.0;
}

DffServingConfig fixed_k10(bool adascale) {
  DffServingConfig cfg;
  cfg.policy = DffServingConfig::Keyframe::kFixedInterval;
  cfg.key_interval = 10;
  cfg.adascale = adascale;
  return cfg;
}

/// The residual trigger alone, refreshing at least every 20 frames (the
/// scale-jump trigger is off so the rows isolate flow-quality keyframing).
DffServingConfig adaptive(float threshold, bool adascale) {
  DffServingConfig cfg;
  cfg.policy = DffServingConfig::Keyframe::kAdaptive;
  cfg.residual_threshold = threshold;
  cfg.max_interval = 20;
  cfg.scale_jump_frac = 0.0f;
  cfg.adascale = adascale;
  return cfg;
}

}  // namespace

int main() {
  std::printf("=== Extension: adaptive key-frame DFF (SynthVID) ===\n");
  Harness h = make_vid_harness(default_cache_dir());
  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg =
      h.regressor(ScaleSet::train_default(), h.default_regressor_config());

  struct Row {
    const char* label;
    DffServingConfig cfg;
  };
  const Row specs[] = {
      {"DFF (fixed k=10)", fixed_k10(false)},
      {"adaptive (thr 0.02)", adaptive(0.02f, false)},
      {"adaptive (thr 0.06)", adaptive(0.06f, false)},
      {"DFF+AdaScale (fixed)", fixed_k10(true)},
      {"adaptive+AdaScale (0.02)", adaptive(0.02f, true)},
  };

  TextTable table({"method", "mAP(%)", "ms/frame", "key share(%)"});
  std::vector<MethodRun> runs;
  std::vector<double> shares;
  for (const Row& spec : specs) {
    std::vector<SnippetRun> snippets =
        h.run_dff(det, reg, spec.cfg, ScaleSet::reg_default());
    shares.push_back(key_share(snippets));
    runs.push_back(h.evaluate(spec.label, std::move(snippets)));
    table.add_row({runs.back().label, fmt(100.0 * runs.back().eval.map, 1),
                   fmt(runs.back().mean_ms, 1), fmt(100.0 * shares.back(), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("summary: loose threshold uses %.0f%% keys at %+.1f mAP vs "
              "fixed DFF; AdaScale composes with the adaptive scheduler\n",
              100.0 * shares[2],
              100.0 * (runs[2].eval.map - runs[0].eval.map));
  return 0;
}
