// Graceful-degradation controller: AdaScale's scale knob as admission
// control.
//
// The paper gives serving a runtime accuracy–speed knob no fixed-scale
// baseline has: the target scale.  This controller closes the loop under
// overload.  It watches the worst queue depth and the worst head-of-line
// deadline slack across streams, and walks a degradation ladder one rung
// per overloaded observation:
//
//   kNormal      — serve as configured.
//   kScaleCap    — cap every stream's AdaScale target scale at
//                  `scale_cap` (snapped onto the regressor scale set via
//                  ScaleSet::nearest, so capped streams still land in
//                  shared batch buckets).  Cuts per-frame cost roughly
//                  quadratically in scale for a bounded, measured mAP
//                  cost — the cheapest capacity the system can buy.
//   kPolicySwitch— additionally switch stream execution policies to the
//                  int8 recipe (quantized detector, fp32 regressor) via
//                  the ExecutionPolicy seam.  Only engages when enabled;
//                  it needs calibrated models to buy anything.
//   kShed        — additionally drop queued frames whose deadline has
//                  already passed (deadline-aware shedding with full drop
//                  accounting).  The last rung: serving a frame nobody
//                  can use anymore only makes every later frame later.
//
// Recovery is hysteretic: one rung down only after `calm_ticks`
// consecutive healthy observations (depth <= queue_low and slack above the
// escalation threshold), so a controller oscillating at a watermark does
// not flap between scales.  Every transition is recorded with its trigger
// in a timeline for the SLO report.  All decisions are pure functions of
// the observation sequence and the injected clock — no wall time, fully
// deterministic (tests/overload_test.cpp).
#pragma once

#include <vector>

#include "adascale/scale_set.h"
#include "util/clock.h"

namespace ada {

/// Degradation ladder rungs, mildest first.  Ordering is meaningful:
/// level >= kScaleCap means "the scale cap is active", etc.
enum class DegradeLevel : int {
  kNormal = 0,
  kScaleCap = 1,
  kPolicySwitch = 2,
  kShed = 3,
};

/// Printable rung name ("normal" | "scale_cap" | "policy_switch" | "shed").
const char* degrade_level_name(DegradeLevel level);

/// Controller knobs.  validate() aborts loudly on inverted thresholds or
/// nonsensical values.
struct OverloadControllerConfig {
  /// Escalate one rung when the worst per-stream queue depth reaches this.
  int queue_high = 4;
  /// A recovery tick requires every queue at or below this depth.
  /// Must be < queue_high (hysteresis gap).
  int queue_low = 1;
  /// Escalate when the worst head-of-line deadline slack falls below this
  /// (ms).  0 = escalate only once a head frame is already late.
  double slack_low_ms = 0.0;
  /// Consecutive healthy observations required before stepping one rung
  /// back down.
  int calm_ticks = 8;
  /// Minimum time (clock ms) a rung must hold before the NEXT escalation:
  /// observations arrive per service slot (milliseconds apart), so without
  /// a dwell a single backlog spike walks the whole ladder before the
  /// first rung's action has had any chance to bite.  0 (the default)
  /// escalates on every overloaded observation — the right setting for
  /// unit tests and for ladders with one enabled rung.
  double min_dwell_ms = 0.0;
  /// kScaleCap rung: cap target scales at this nominal scale (snapped onto
  /// the scale set the controller was built with).  Must be positive.
  int scale_cap = 360;
  /// Rung enables.  Disabled rungs are skipped in both directions, so the
  /// ladder degenerates gracefully (e.g. no quantized models -> no policy
  /// switch rung).
  bool enable_scale_cap = true;
  bool enable_policy_switch = false;
  bool enable_shed = true;

  void validate() const;
};

/// One ladder transition, for the degradation timeline.
struct DegradeEvent {
  double ms = 0.0;  ///< clock time of the transition
  DegradeLevel from = DegradeLevel::kNormal;
  DegradeLevel to = DegradeLevel::kNormal;
  int depth = 0;         ///< worst queue depth observed at the transition
  double slack_ms = 0.0; ///< worst head-of-line slack observed
};

/// Watches queue pressure, walks the degradation ladder, recovers with
/// hysteresis.  Single-threaded by design (driven by run_timed's one
/// worker); all timing through the injected clock.
class OverloadController {
 public:
  /// `sreg` is the scale set targets are snapped onto when capped; `clock`
  /// must outlive the controller.
  OverloadController(const OverloadControllerConfig& cfg, const ScaleSet& sreg,
                     const Clock* clock);

  DegradeLevel level() const { return level_; }

  /// Feeds one observation: the worst (max) queue depth and worst (min)
  /// head-of-line deadline slack across all live streams.  Escalates,
  /// holds, or (after calm_ticks healthy observations) recovers one rung.
  /// Returns the level now in force.
  DegradeLevel observe(int max_depth, double min_slack_ms);

  /// The scale this target is actually served at under the current level:
  /// min(target, scale_cap) snapped onto the scale set when the cap rung is
  /// active, the target unchanged otherwise.
  int apply_scale(int target_scale) const;

  /// True while the int8 policy-switch rung is in force.
  bool policy_switch_active() const {
    return cfg_.enable_policy_switch && level_ >= DegradeLevel::kPolicySwitch;
  }

  /// True while the shedding rung is in force (the runner then drops
  /// expired frames via ArrivalQueue::shed_expired).
  bool shedding_active() const {
    return cfg_.enable_shed && level_ >= DegradeLevel::kShed;
  }

  /// Every ladder transition since construction, in order.
  const std::vector<DegradeEvent>& timeline() const { return timeline_; }

  const OverloadControllerConfig& config() const { return cfg_; }

 private:
  /// Next enabled rung above/below `from` (respecting disabled rungs);
  /// returns `from` when there is none.
  DegradeLevel next_up(DegradeLevel from) const;
  DegradeLevel next_down(DegradeLevel from) const;
  bool rung_enabled(DegradeLevel level) const;

  OverloadControllerConfig cfg_;
  ScaleSet sreg_;
  const Clock* clock_;
  DegradeLevel level_ = DegradeLevel::kNormal;
  int calm_streak_ = 0;
  std::vector<DegradeEvent> timeline_;
};

}  // namespace ada
