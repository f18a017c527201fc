// Composing AdaScale with video-acceleration methods (the paper's Sec. 4.6):
// runs DFF and Seq-NMS with and without AdaScale on the same clips and
// prints the resulting accuracy/latency matrix.
#include <cstdio>

#include "experiments/harness.h"
#include "util/table.h"

using namespace ada;

int main() {
  std::printf("AdaScale composition with DFF and Seq-NMS\n");
  std::printf("=========================================\n\n");

  Harness h = make_vid_harness(default_cache_dir());
  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg = h.regressor(ScaleSet::train_default(),
                                    h.default_regressor_config());
  const ScaleSet sreg = ScaleSet::reg_default();

  // Fixed key interval 10 as in the paper's DFF (the serving default is
  // adaptive); plain DFF keeps the scale at 600.
  DffServingConfig dff_ada;
  dff_ada.policy = DffServingConfig::Keyframe::kFixedInterval;
  dff_ada.key_interval = 10;
  DffServingConfig dff_plain = dff_ada;
  dff_plain.adascale = false;
  SeqNmsConfig seqnms;

  TextTable t({"pipeline", "mAP(%)", "ms/frame", "FPS"});
  auto add = [&](const char* label, MethodRun run) {
    t.add_row({label, fmt(100.0 * run.eval.map, 1), fmt(run.mean_ms, 1),
               fmt(run.fps, 1)});
  };

  add("detector @600", h.evaluate("base", h.run_fixed(det, 600)));
  add("detector + AdaScale", h.evaluate("ada", h.run_adascale(det, reg, sreg)));
  add("DFF (key=10)", h.evaluate("dff", h.run_dff(det, reg, dff_plain, sreg)));
  add("DFF + AdaScale", h.evaluate("dff+ada", h.run_dff(det, reg, dff_ada, sreg)));
  add("Seq-NMS", h.evaluate("seq", h.run_fixed(det, 600), &seqnms));
  add("Seq-NMS + AdaScale",
      h.evaluate("seq+ada", h.run_adascale(det, reg, sreg), &seqnms));

  std::printf("%s\n", t.to_string().c_str());
  std::printf("AdaScale composes with both accelerators: the scale decision\n"
              "is orthogonal to temporal feature reuse and to cross-frame\n"
              "rescoring.\n");
  return 0;
}
