// plan_dump — prints the ahead-of-time execution plans the serving path
// caches: per-layer kernel choice, input/output geometry, scratch-arena
// workspace bytes, and MACs, for the detector and the scale regressor at
// each requested nominal scale (runtime/exec_plan.h).
//
// Plans depend on architecture, policy, and quantization state — never on
// weight values or timing — so this tool builds untrained models and is
// instant; no model cache, no training.  It prints the fp32 (packed) plan
// per scale and, with --int8, calibrates on the rendered frames and
// reprints under the mixed-precision serving config (int8 detector policy
// + fp32 regressor policy), where every detector conv plans int8.
//
// Usage: plan_dump [--int8] [scale ...]     (default scales: S_reg)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "adascale/scale_regressor.h"
#include "adascale/scale_set.h"
#include "data/dataset.h"
#include "detection/detector.h"

using namespace ada;

int main(int argc, char** argv) {
  bool with_int8 = false;
  std::vector<int> scales;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--int8") == 0) {
      with_int8 = true;
    } else {
      const int s = std::atoi(argv[i]);
      if (s <= 0) {
        std::fprintf(stderr, "plan_dump: bad scale \"%s\"\n", argv[i]);
        return 1;
      }
      scales.push_back(s);
    }
  }
  if (scales.empty()) scales = ScaleSet::reg_default().scales;

  Dataset dataset = Dataset::synth_vid(1, 1, 77);
  DetectorConfig dcfg;
  dcfg.num_classes = dataset.catalog().num_classes();
  Rng rng(1);
  Detector detector(dcfg, &rng);
  RegressorConfig rcfg;
  rcfg.in_channels = detector.feature_channels();
  Rng rng2(2);
  ScaleRegressor regressor(rcfg, &rng2);

  const Renderer renderer = dataset.make_renderer();
  std::vector<Tensor> frames;
  for (int s : scales)
    frames.push_back(renderer.render_at_scale(*dataset.val_frames()[0], s,
                                              dataset.scale_policy()));

  if (with_int8) {
    // Mixed-precision serving config: int8 detector, fp32 regressor.
    detector.quantize(frames);
    detector.set_execution_policy(ExecutionPolicy::int8());
    regressor.set_execution_policy(ExecutionPolicy::fp32());
  }

  for (std::size_t i = 0; i < scales.size(); ++i) {
    const Tensor& img = frames[i];
    std::printf("=== scale %d (rendered %dx%d) ===\n", scales[i], img.h(),
                img.w());
    const ExecutionPlan& det_plan = detector.plan_for(1, img.h(), img.w());
    std::printf("detector %s", det_plan.to_string().c_str());
    // Feature-map shape = the cls head's planned input (second-to-last
    // step), so the regressor plan needs no forward pass either.
    const PlanShape feat = det_plan.steps[det_plan.steps.size() - 2].in;
    const ExecutionPlan& reg_plan = regressor.plan_for(1, feat.h, feat.w);
    std::printf("regressor %s\n", reg_plan.to_string().c_str());
  }
  return 0;
}
