// Reproduces Fig. 7: the mAP-vs-FPS Pareto plot on SynthVID with the video
// pipelines the paper composes AdaScale with:
//   R-FCN (our detector), R-FCN + AdaScale,
//   DFF, DFF + AdaScale,
//   R-FCN + Seq-NMS, AdaScale + Seq-NMS.
//
// Expected shape (paper): AdaScale shifts every base method right (faster)
// and slightly up (more accurate): +AdaScale gives DFF an extra ~1.25x and
// Seq-NMS an extra ~1.6x speedup at >= equal mAP.
#include <cstdio>

#include "eval/pareto.h"
#include "experiments/harness.h"
#include "util/table.h"
#include "util/timer.h"
#include "video/tracker.h"

using namespace ada;

int main() {
  std::printf("=== Fig. 7: mAP vs FPS Pareto (SynthVID) ===\n");
  Harness h = make_vid_harness(default_cache_dir());

  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg = h.regressor(ScaleSet::train_default(),
                                    h.default_regressor_config());
  const ScaleSet sreg = ScaleSet::reg_default();
  // The paper's DFF: a key every 10 frames (the serving default is
  // adaptive, so the fixed schedule is set explicitly).  Plain DFF keeps
  // the scale at 600.
  DffServingConfig dff_ada;
  dff_ada.policy = DffServingConfig::Keyframe::kFixedInterval;
  dff_ada.key_interval = 10;
  DffServingConfig dff_plain = dff_ada;
  dff_plain.adascale = false;
  SeqNmsConfig seqnms_cfg;

  std::vector<MethodRun> runs;
  runs.push_back(h.evaluate("R-FCN (fixed 600)", h.run_fixed(det, 600)));
  runs.push_back(
      h.evaluate("R-FCN + AdaScale", h.run_adascale(det, reg, sreg)));
  runs.push_back(h.evaluate("DFF", h.run_dff(det, reg, dff_plain, sreg)));
  runs.push_back(
      h.evaluate("DFF + AdaScale", h.run_dff(det, reg, dff_ada, sreg)));
  runs.push_back(h.evaluate("R-FCN + SeqNMS", h.run_fixed(det, 600),
                            &seqnms_cfg));
  runs.push_back(h.evaluate("AdaScale + SeqNMS",
                            h.run_adascale(det, reg, sreg), &seqnms_cfg));

  // D&T-lite (video/tracker.h): online IoU-track rescoring, our stand-in for
  // the Detect-to-Track comparison point of the paper's Fig. 7.
  {
    auto base = h.run_fixed(det, 600);
    auto ada = h.run_adascale(det, reg, sreg);
    for (auto* rs : {&base, &ada})
      for (SnippetRun& run : *rs) {
        Timer t;
        track_rescore(&run.frame_dets);
        const double per_frame =
            t.elapsed_ms() / std::max<std::size_t>(run.frame_dets.size(), 1);
        for (double& ms : run.frame_ms) ms += per_frame;
      }
    runs.push_back(h.evaluate("R-FCN + D&T-lite", std::move(base)));
    runs.push_back(h.evaluate("AdaScale + D&T-lite", std::move(ada)));
  }

  TextTable table({"method", "mAP(%)", "ms/frame", "FPS"});
  for (const MethodRun& r : runs)
    table.add_row({r.label, fmt(100.0 * r.eval.map, 1), fmt(r.mean_ms, 1),
                   fmt(r.fps, 1)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("AdaScale speedup on DFF:    %.2fx (mAP %+.1f)\n",
              runs[2].mean_ms / runs[3].mean_ms,
              100.0 * (runs[3].eval.map - runs[2].eval.map));
  std::printf("AdaScale speedup on SeqNMS: %.2fx (mAP %+.1f)\n",
              runs[4].mean_ms / runs[5].mean_ms,
              100.0 * (runs[5].eval.map - runs[4].eval.map));

  // The Fig. 7 scatter: who sits on the speed/accuracy frontier.
  std::vector<ParetoPoint> points;
  for (const MethodRun& r : runs) points.push_back({r.label, r.fps, r.eval.map});
  std::printf("\n%s\n", pareto_scatter(points, 56, 14).c_str());
  const auto frontier = pareto_frontier(points);
  std::printf("Pareto frontier:");
  for (const ParetoPoint& p : frontier) std::printf("  [%s]", p.label.c_str());
  std::printf("\nAdaScale variants hold %.0f%% of the frontier\n",
              100.0 * frontier_share(frontier, "AdaScale"));
  std::printf("\nCSV:\n%s", pareto_csv(points).c_str());
  return 0;
}
