// Shared declarations of the serving benchmark (see ../README.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiments/harness.h"
#include "runtime/multi_stream.h"
#include "trace.h"

namespace servebench {

enum class Mode { kTable, kBatched, kArrivals };

/// One named traffic mix; see the README for why each exists.
struct Workload {
  std::string name;
  Mode mode = Mode::kTable;
  int streams = 0;
  int snippets = 0;   ///< input snippets generated per seed
  bool mixed = false; ///< int8 detector + fp32 regressor (prepare_mixed_precision)
  bool dff = false;   ///< DFF keyframe serving at its default adaptive policy
};

/// A serving process after set-up: models loaded from the prepared cache,
/// precision prepared, runner and ModelTable built, plans built for every
/// scale in S_reg.  Owns everything the runner points at.
struct Server {
  std::unique_ptr<ada::Harness> harness;
  ada::Detector* det = nullptr;        ///< prototype (owned by harness)
  ada::ScaleRegressor* reg = nullptr;  ///< prototype (owned by harness)
  std::unique_ptr<ada::MultiStreamRunner> runner;
  ada::DffServingConfig dff;  ///< what set_dff received (when w.dff)
  double load_ms = 0.0;       ///< Harness::detector + Harness::regressor
  double precision_ms = 0.0;  ///< prepare_mixed_precision, or pinning fp32
  double runner_ms = 0.0;     ///< MultiStreamRunner (+ set_dff)
  double plan_ms = 0.0;       ///< first-use plan builds + autotune races
  double total_ms = 0.0;
};

/// One served frame as the untraced run recorded it, with its input.
struct ServedFrame {
  int stream = 0;
  long seq = 0;  ///< per-stream frame index
  const ada::Scene* scene = nullptr;
  const ada::Scene* next_scene = nullptr;  ///< next frame of the snippet
  bool snippet_start = false;
  const ada::AdaFrameOutput* out = nullptr;
};

struct ReplayResult {
  bool reproduced = true;
  std::string mismatch;  ///< first frame that did not reproduce, and why
  long frames = 0;
  double frame_ms = 0.0;  ///< summed duration of the per-frame root spans
  /// Per frame: start of its replay minus the end of its stream's previous
  /// frame (the wait behind other streams in a one-worker ready queue).
  std::vector<double> ready_wait_ms;
};

/// Replays `order` through the public calls the serving path makes, on
/// contexts leased from the runner's ModelTable, recording spans into
/// `rec`, and checks each frame reproduces the recorded detections.
ReplayResult replay(Server* server, const Workload& w,
                    const std::vector<ServedFrame>& order, SpanRecorder* rec);

/// Layer probes outside any served frame (spans marked `probe`):
/// Detector::forward at every scale of S_reg on frames of `order`, and on
/// workloads without DFF the calls a DFF warp frame makes (flow to the next
/// frame of the snippet, feature warp, heads) on every 8th served frame, so
/// flow and warp-head costs are measured on every workload's inputs.
void probe_layers(Server* server, const Workload& w,
                  const std::vector<ServedFrame>& order, SpanRecorder* rec);

/// Byte equality of two served frames' deterministic fields: detections
/// (every float compared by its bytes), scales, regressed t and the DFF
/// decision.  Timing fields are ignored.
bool same_output(const ada::AdaFrameOutput& a, const ada::AdaFrameOutput& b);

}  // namespace servebench
