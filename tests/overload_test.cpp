// Overload-aware serving: bounded admission queues, the degradation
// controller, fault injection, and the virtual-time runner.
//
// Everything here runs in virtual time (util/clock.h ManualClock): arrival
// schedules, queueing, deadline slack, controller decisions and "service"
// all advance an injected clock, never the wall clock.  The tests are
// therefore exact — the same schedule + config + seed produces the same
// drops, the same latencies and the same degradation timeline on any
// machine at any ADASCALE_THREADS setting — and they simulate minutes of
// serving in milliseconds of real time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <utility>

#include "data/dataset.h"
#include "runtime/admission.h"
#include "runtime/fault_injection.h"
#include "runtime/multi_stream.h"
#include "runtime/overload_controller.h"
#include "util/clock.h"
#include "util/latency_histogram.h"

namespace ada {
namespace {

// ---------------------------------------------------------------------------
// Config validation: nonsense must die loudly, not misbehave silently.
// ---------------------------------------------------------------------------

TEST(ConfigValidationDeathTest, AdmissionRejectsNonsense) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  AdmissionConfig zero_cap;
  zero_cap.capacity = 0;
  EXPECT_DEATH(zero_cap.validate(), "capacity");
  AdmissionConfig neg_deadline;
  neg_deadline.deadline_ms = -5.0;
  EXPECT_DEATH(neg_deadline.validate(), "deadline_ms");
}

TEST(ConfigValidationDeathTest, ControllerRejectsInvertedWatermarks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  OverloadControllerConfig inverted;
  inverted.queue_high = 2;
  inverted.queue_low = 2;  // must be strictly below queue_high
  EXPECT_DEATH(inverted.validate(), "inverted watermarks");

  OverloadControllerConfig no_rungs;
  no_rungs.enable_scale_cap = false;
  no_rungs.enable_policy_switch = false;
  no_rungs.enable_shed = false;
  EXPECT_DEATH(no_rungs.validate(), "rung");

  OverloadControllerConfig neg_scale;
  neg_scale.scale_cap = -600;
  EXPECT_DEATH(neg_scale.validate(), "scale_cap");
}

TEST(ConfigValidationDeathTest, TimedRunConfigRejectsNonsense) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  TimedRunConfig no_service;
  no_service.run_inference = false;  // and no service_model
  EXPECT_DEATH(no_service.validate(), "service_model");
  TimedRunConfig bad_admission;
  bad_admission.admission.capacity = 0;  // validate() recurses into admission
  EXPECT_DEATH(bad_admission.validate(), "capacity");
}

TEST(ConfigValidationDeathTest, BatchSchedulerRejectsNonsense) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  BatchSchedulerConfig zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_DEATH(zero_batch.validate(), "max_batch");
}

TEST(ConfigValidationDeathTest, DffServingRejectsNonsense) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  DffServingConfig zero_interval;
  zero_interval.key_interval = 0;
  EXPECT_DEATH(zero_interval.validate(), "key_interval");
  DffServingConfig neg_residual;
  neg_residual.residual_threshold = -0.1f;
  EXPECT_DEATH(neg_residual.validate(), "residual_threshold");
  // A negative radius would make every flow field zero, silently warping
  // unshifted key features.
  DffServingConfig neg_search;
  neg_search.flow.search_radius = -1;
  EXPECT_DEATH(neg_search.validate(), "search_radius");
  DffServingConfig neg_patch;
  neg_patch.flow.patch_radius = -1;
  EXPECT_DEATH(neg_patch.validate(), "patch_radius");
}

// ---------------------------------------------------------------------------
// ArrivalQueue: bounded admission, deadline stamping, drop accounting.
// ---------------------------------------------------------------------------

TEST(ArrivalQueueTest, TailDropsAtCapacityAndKeepsInvariants) {
  ManualClock clock;
  AdmissionConfig cfg;
  cfg.capacity = 2;
  cfg.deadline_ms = 100.0;
  ArrivalQueue q(cfg, &clock);

  EXPECT_TRUE(q.offer(nullptr, true, 0.0));
  EXPECT_TRUE(q.offer(nullptr, false, 1.0));
  EXPECT_FALSE(q.offer(nullptr, false, 2.0));  // at capacity: tail drop
  EXPECT_EQ(q.depth(), 2);
  EXPECT_EQ(q.stats().offered, 3);
  EXPECT_EQ(q.stats().admitted, 2);
  EXPECT_EQ(q.stats().dropped_queue_full, 1);

  // Seq numbers every offered frame, admitted or not: the frame offered
  // after the drop gets seq 3, not 2.
  AdmittedFrame head = q.pop();
  EXPECT_EQ(head.seq, 0);
  EXPECT_TRUE(head.snippet_start);
  EXPECT_EQ(head.deadline_ms, 100.0);  // arrival 0 + deadline
  EXPECT_TRUE(q.offer(nullptr, false, 3.0));
  q.pop();
  AdmittedFrame last = q.pop();
  EXPECT_EQ(last.seq, 3);

  const AdmissionStats& st = q.stats();
  EXPECT_EQ(st.offered, st.admitted + st.dropped_queue_full);
  EXPECT_EQ(st.admitted, st.served + st.dropped_deadline + q.depth());
}

TEST(ArrivalQueueTest, ArrivalTimestampIsExplicitNotClockTime) {
  // The event loop delivers arrivals after the clock has already advanced
  // past them; the queue must honor the scheduled arrival, or queueing
  // delay silently vanishes from every latency number.
  ManualClock clock;
  clock.advance(500.0);
  AdmissionConfig cfg;
  cfg.deadline_ms = 100.0;
  ArrivalQueue q(cfg, &clock);
  ASSERT_TRUE(q.offer(nullptr, false, 450.0));  // arrived mid-service-window
  EXPECT_EQ(q.front().arrival_ms, 450.0);
  EXPECT_EQ(q.front().deadline_ms, 550.0);
  EXPECT_EQ(q.oldest_slack_ms(), 50.0);  // 550 - 500, not 100
}

TEST(ArrivalQueueTest, ShedExpiredDropsOnlyLateFramesWithIdentities) {
  ManualClock clock;
  AdmissionConfig cfg;
  cfg.capacity = 8;
  cfg.deadline_ms = 100.0;
  ArrivalQueue q(cfg, &clock);
  ASSERT_TRUE(q.offer(nullptr, false, 0.0));    // deadline 100
  ASSERT_TRUE(q.offer(nullptr, false, 50.0));   // deadline 150
  ASSERT_TRUE(q.offer(nullptr, false, 120.0));  // deadline 220

  clock.advance(160.0);
  std::vector<AdmittedFrame> shed = q.shed_expired();
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].seq, 0);
  EXPECT_EQ(shed[1].seq, 1);
  EXPECT_EQ(q.depth(), 1);
  EXPECT_EQ(q.front().seq, 2);
  EXPECT_EQ(q.stats().dropped_deadline, 2);
  const AdmissionStats& st = q.stats();
  EXPECT_EQ(st.admitted, st.served + st.dropped_deadline + q.depth());
}

TEST(ArrivalQueueTest, EmptyQueueReportsFullSlack) {
  ManualClock clock;
  AdmissionConfig cfg;
  cfg.deadline_ms = 250.0;
  ArrivalQueue q(cfg, &clock);
  EXPECT_EQ(q.oldest_slack_ms(), 250.0);
}

// ---------------------------------------------------------------------------
// Load-schedule generators.
// ---------------------------------------------------------------------------

class ScheduleTest : public ::testing::Test {
 protected:
  ScheduleTest() : dataset_(Dataset::synth_vid(1, 4, 77)) {}

  std::vector<const Snippet*> jobs() const {
    std::vector<const Snippet*> j;
    for (const Snippet& s : dataset_.val_snippets()) j.push_back(&s);
    return j;
  }

  Dataset dataset_;
};

TEST_F(ScheduleTest, PoissonScheduleIsSortedSeededAndComplete) {
  Rng rng_a(123), rng_b(123), rng_c(456);
  const auto j = jobs();
  StreamSchedule a = poisson_schedule(j, 50.0, 0.0, &rng_a);
  StreamSchedule b = poisson_schedule(j, 50.0, 0.0, &rng_b);
  StreamSchedule c = poisson_schedule(j, 50.0, 0.0, &rng_c);

  std::size_t total_frames = 0;
  for (const Snippet* s : j) total_frames += s->frames.size();
  ASSERT_EQ(a.size(), total_frames);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ms, b[i].ms);  // same seed: bit-identical schedule
    EXPECT_EQ(a[i].scene, b[i].scene);
    EXPECT_EQ(a[i].snippet_start, b[i].snippet_start);
    if (i > 0) {
      EXPECT_GE(a[i].ms, a[i - 1].ms);  // sorted by arrival
    }
  }
  // Different seed: a genuinely different trace.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && i < c.size(); ++i)
    if (a[i].ms != c[i].ms) any_diff = true;
  EXPECT_TRUE(any_diff);

  // Exactly one snippet_start per snippet, on its first frame.
  long starts = 0;
  for (const FrameArrival& f : a) starts += f.snippet_start ? 1 : 0;
  EXPECT_EQ(starts, static_cast<long>(j.size()));
  EXPECT_TRUE(a.front().snippet_start);
}

TEST_F(ScheduleTest, BurstyScheduleArrivesFasterInsideBursts) {
  Rng rng(7);
  const auto j = jobs();
  // Burst windows cover half of each period at 20x the base rate.
  StreamSchedule s =
      bursty_schedule(j, 10.0, 200.0, 1000.0, 500.0, 0.0, &rng);
  long burst_arrivals = 0, calm_arrivals = 0;
  for (const FrameArrival& f : s) {
    const double phase = std::fmod(f.ms, 1000.0);
    (phase < 500.0 ? burst_arrivals : calm_arrivals) += 1;
  }
  // At 20x the rate the burst windows must hold the large majority of
  // arrivals even though they are only half the time.
  EXPECT_GT(burst_arrivals, 3 * calm_arrivals);
}

// ---------------------------------------------------------------------------
// OverloadController ladder mechanics.
// ---------------------------------------------------------------------------

TEST(OverloadControllerTest, EscalatesOneRungPerOverloadedObservation) {
  ManualClock clock;
  OverloadControllerConfig cfg;
  cfg.queue_high = 4;
  cfg.queue_low = 1;
  cfg.enable_policy_switch = true;
  OverloadController c(cfg, ScaleSet::reg_default(), &clock);

  EXPECT_EQ(c.level(), DegradeLevel::kNormal);
  EXPECT_EQ(c.observe(4, 100.0), DegradeLevel::kScaleCap);
  EXPECT_EQ(c.observe(6, 50.0), DegradeLevel::kPolicySwitch);
  EXPECT_EQ(c.observe(9, -20.0), DegradeLevel::kShed);
  EXPECT_EQ(c.observe(9, -40.0), DegradeLevel::kShed);  // already at the top
  EXPECT_EQ(c.timeline().size(), 3u);
  EXPECT_TRUE(c.policy_switch_active());
  EXPECT_TRUE(c.shedding_active());
}

TEST(OverloadControllerTest, RecoversHystereticallyAfterCalmTicks) {
  ManualClock clock;
  OverloadControllerConfig cfg;
  cfg.queue_high = 4;
  cfg.queue_low = 1;
  cfg.calm_ticks = 3;
  cfg.enable_policy_switch = true;
  OverloadController c(cfg, ScaleSet::reg_default(), &clock);
  c.observe(5, 100.0);
  c.observe(5, 100.0);  // kPolicySwitch

  // In-band observations (neither overloaded nor healthy) hold the level
  // AND reset the calm streak.
  EXPECT_EQ(c.observe(2, 100.0), DegradeLevel::kPolicySwitch);
  EXPECT_EQ(c.observe(1, 100.0), DegradeLevel::kPolicySwitch);
  EXPECT_EQ(c.observe(1, 100.0), DegradeLevel::kPolicySwitch);
  EXPECT_EQ(c.observe(2, 100.0), DegradeLevel::kPolicySwitch);  // streak reset
  EXPECT_EQ(c.observe(1, 100.0), DegradeLevel::kPolicySwitch);
  EXPECT_EQ(c.observe(1, 100.0), DegradeLevel::kPolicySwitch);
  // Third consecutive healthy tick: one rung down, streak restarts.
  EXPECT_EQ(c.observe(0, 100.0), DegradeLevel::kScaleCap);
  EXPECT_EQ(c.observe(0, 100.0), DegradeLevel::kScaleCap);
  EXPECT_EQ(c.observe(0, 100.0), DegradeLevel::kScaleCap);
  EXPECT_EQ(c.observe(0, 100.0), DegradeLevel::kNormal);
  EXPECT_FALSE(c.policy_switch_active());
}

TEST(OverloadControllerTest, DwellGateHoldsEscalationUntilTheRungHadTime) {
  ManualClock clock;
  OverloadControllerConfig cfg;
  cfg.min_dwell_ms = 50.0;
  cfg.enable_policy_switch = true;
  OverloadController c(cfg, ScaleSet::reg_default(), &clock);

  EXPECT_EQ(c.observe(8, -1.0), DegradeLevel::kScaleCap);  // first: immediate
  // Still overloaded 10ms later: the cap has not had its dwell yet.
  clock.advance(10.0);
  EXPECT_EQ(c.observe(8, -1.0), DegradeLevel::kScaleCap);
  // Past the dwell and still overloaded: next rung.
  clock.advance(45.0);
  EXPECT_EQ(c.observe(8, -1.0), DegradeLevel::kPolicySwitch);
  EXPECT_EQ(c.timeline().size(), 2u);
}

TEST(OverloadControllerTest, DisabledRungsAreSkippedBothWays) {
  ManualClock clock;
  OverloadControllerConfig cfg;
  cfg.calm_ticks = 1;
  cfg.enable_policy_switch = false;  // the default; spelled out for clarity
  OverloadController c(cfg, ScaleSet::reg_default(), &clock);
  EXPECT_EQ(c.observe(8, -1.0), DegradeLevel::kScaleCap);
  EXPECT_EQ(c.observe(8, -1.0), DegradeLevel::kShed);  // skipped policy rung
  EXPECT_EQ(c.observe(0, 100.0), DegradeLevel::kScaleCap);  // and back down
  EXPECT_FALSE(c.policy_switch_active());
}

TEST(OverloadControllerTest, AppliedScaleSnapsOntoTheScaleSet) {
  ManualClock clock;
  OverloadControllerConfig cfg;
  cfg.scale_cap = 400;  // not a set member: must snap onto {600,480,360,...}
  OverloadController c(cfg, ScaleSet::reg_default(), &clock);
  EXPECT_EQ(c.apply_scale(600), 600);  // kNormal: untouched
  c.observe(8, -1.0);                  // kScaleCap
  EXPECT_EQ(c.apply_scale(600), ScaleSet::reg_default().nearest(400));
  EXPECT_EQ(c.apply_scale(128), 128);  // already under the cap
}

// ---------------------------------------------------------------------------
// run_timed: the virtual-time serving loop.
// ---------------------------------------------------------------------------

class TimedRunTest : public ::testing::Test {
 protected:
  TimedRunTest()
      : dataset_(Dataset::synth_vid(1, 4, 77)),
        renderer_(dataset_.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset_.catalog().num_classes();
    Rng rng(5);
    detector_ = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = detector_->feature_channels();
    Rng rng2(6);
    regressor_ = std::make_unique<ScaleRegressor>(rcfg, &rng2);
  }

  std::vector<const Snippet*> val_jobs() const {
    std::vector<const Snippet*> jobs;
    for (const Snippet& s : dataset_.val_snippets()) jobs.push_back(&s);
    return jobs;
  }

  std::unique_ptr<MultiStreamRunner> make_runner(int streams) {
    return std::make_unique<MultiStreamRunner>(
        detector_.get(), regressor_.get(), &renderer_,
        dataset_.scale_policy(), ScaleSet::reg_default(), streams,
        /*init_scale=*/600, /*snap_scales=*/true);
  }

  /// Service cost quadratic in scale (rendered pixels ~ scale^2): `base_ms`
  /// at scale 600.  The knob the scale-cap rung exploits.
  static TimedRunConfig modeled_config(double base_ms) {
    TimedRunConfig cfg;
    cfg.run_inference = false;
    cfg.service_model = [base_ms](int, long, int scale, DegradeLevel) {
      const double f = static_cast<double>(scale) / 600.0;
      return base_ms * f * f;
    };
    return cfg;
  }

  /// Per-stream schedules over the val snippets: stream s takes snippets
  /// s, s+n, ... (churn: streams go idle when their snippets run out).
  /// `repeats` cycles the per-stream snippet list to lengthen the trace
  /// (scenes may repeat; the schedule only points at them).
  std::vector<StreamSchedule> round_robin_schedules(
      int streams, double rate_hz, std::uint64_t seed,
      double burst_rate_hz = 0.0, int repeats = 1) {
    const auto jobs = val_jobs();
    std::vector<StreamSchedule> schedules;
    for (int s = 0; s < streams; ++s) {
      std::vector<const Snippet*> mine;
      for (int rep = 0; rep < repeats; ++rep)
        for (std::size_t j = static_cast<std::size_t>(s); j < jobs.size();
             j += static_cast<std::size_t>(streams))
          mine.push_back(jobs[j]);
      Rng rng(seed + static_cast<std::uint64_t>(s));
      schedules.push_back(
          burst_rate_hz > 0.0
              ? bursty_schedule(mine, rate_hz, burst_rate_hz, 1000.0, 400.0,
                                0.0, &rng)
              : poisson_schedule(mine, rate_hz, 0.0, &rng));
    }
    return schedules;
  }

  static void expect_accounting_invariants(const TimedRunResult& r) {
    for (const AdmissionStats& st : r.stream_stats) {
      EXPECT_EQ(st.offered, st.admitted + st.dropped_queue_full);
      // Queues drain before run_timed returns: depth() == 0.
      EXPECT_EQ(st.admitted, st.served + st.dropped_deadline);
    }
    EXPECT_EQ(r.offered,
              r.served + r.dropped_queue_full + r.dropped_deadline);
    EXPECT_EQ(static_cast<long>(r.frames.size()), r.offered);
    EXPECT_EQ(static_cast<long>(r.latency.count()), r.served);
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

TEST_F(TimedRunTest, AccountingInvariantsHoldUnderBurstyChurn) {
  auto runner = make_runner(3);
  ManualClock clock;
  // Deliberately under-capacity queues and a hot burst rate: plenty of
  // queue-full drops, plus deadline shedding once the controller engages.
  TimedRunConfig cfg = modeled_config(30.0);
  cfg.admission.capacity = 4;
  cfg.admission.deadline_ms = 200.0;
  OverloadControllerConfig ccfg;
  ccfg.queue_high = 3;
  ccfg.calm_ticks = 4;
  OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);

  TimedRunResult r = runner->run_timed(
      round_robin_schedules(3, 20.0, 42, /*burst_rate_hz=*/300.0), cfg,
      &clock, &controller);

  expect_accounting_invariants(r);
  EXPECT_GT(r.offered, 0);
  EXPECT_GT(r.dropped_queue_full, 0);  // the burst must overflow capacity-4
  // Every offered frame appears exactly once in the records, with
  // stream-local seq uniqueness.
  std::vector<std::vector<bool>> seen(3);
  for (auto& v : seen) v.resize(static_cast<std::size_t>(r.offered), false);
  for (const TimedFrameRecord& f : r.frames) {
    ASSERT_LT(f.seq, r.offered);
    EXPECT_FALSE(seen[static_cast<std::size_t>(f.stream)]
                     [static_cast<std::size_t>(f.seq)]);
    seen[static_cast<std::size_t>(f.stream)]
        [static_cast<std::size_t>(f.seq)] = true;
  }
}

TEST_F(TimedRunTest, DeterministicAcrossIdenticalRuns) {
  // Same schedules, same config, fresh runner + clock: every record field
  // and the whole degradation timeline must match exactly.
  auto run_once = [&]() {
    auto runner = make_runner(2);
    ManualClock clock;
    TimedRunConfig cfg = modeled_config(25.0);
    cfg.admission.capacity = 6;
    cfg.admission.deadline_ms = 150.0;
    cfg.faults = FaultInjection::global_spike(10, 20, 40.0);
    OverloadControllerConfig ccfg;
    ccfg.calm_ticks = 3;
    OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);
    return runner->run_timed(round_robin_schedules(2, 30.0, 99, 200.0), cfg,
                             &clock, &controller);
  };
  TimedRunResult a = run_once();
  TimedRunResult b = run_once();
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].stream, b.frames[i].stream);
    EXPECT_EQ(a.frames[i].seq, b.frames[i].seq);
    EXPECT_EQ(a.frames[i].arrival_ms, b.frames[i].arrival_ms);
    EXPECT_EQ(a.frames[i].finish_ms, b.frames[i].finish_ms);
    EXPECT_EQ(a.frames[i].dropped, b.frames[i].dropped);
    EXPECT_EQ(a.frames[i].scale_used, b.frames[i].scale_used);
    EXPECT_EQ(a.frames[i].level, b.frames[i].level);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].ms, b.timeline[i].ms);
    EXPECT_EQ(a.timeline[i].to, b.timeline[i].to);
  }
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

TEST_F(TimedRunTest, StalledStreamDegradesThenRecovers) {
  // One stream's frames stall 60ms each for a window (a wedged decoder);
  // the shared worker backlogs, the ladder walks up — and once the stall
  // clears and queues drain, hysteresis walks it back to normal.
  auto runner = make_runner(2);
  ManualClock clock;
  TimedRunConfig cfg = modeled_config(8.0);  // healthy when unfaulted
  cfg.admission.capacity = 16;
  cfg.admission.deadline_ms = 250.0;
  cfg.faults.spikes.push_back({/*stream=*/0, /*from_seq=*/5, /*to_seq=*/20,
                               /*extra_ms=*/60.0});
  OverloadControllerConfig ccfg;
  ccfg.queue_high = 4;
  ccfg.queue_low = 1;
  ccfg.calm_ticks = 5;
  OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);

  // 4 repeats ≈ 96 frames/stream: the stall window [5, 20] ends with most
  // of the trace still ahead, leaving room for the calm streaks recovery
  // needs (one per rung).
  TimedRunResult r = runner->run_timed(
      round_robin_schedules(2, 40.0, 7, /*burst_rate_hz=*/0.0, /*repeats=*/4),
      cfg, &clock, &controller);

  expect_accounting_invariants(r);
  ASSERT_FALSE(r.timeline.empty());  // the fault must register
  DegradeLevel worst = DegradeLevel::kNormal;
  for (const DegradeEvent& e : r.timeline)
    worst = std::max(worst, e.to);
  EXPECT_GE(worst, DegradeLevel::kScaleCap);
  // While capped, served scales obey the cap (snapped onto the set).
  const int cap_scale = ScaleSet::reg_default().nearest(ccfg.scale_cap);
  for (const TimedFrameRecord& f : r.frames) {
    if (!f.dropped && f.level >= DegradeLevel::kScaleCap) {
      EXPECT_LE(f.scale_used, cap_scale);
    }
  }
  // Recovery: the run ends back at normal with the cap lifted.
  EXPECT_EQ(r.final_level, DegradeLevel::kNormal);
  EXPECT_EQ(r.timeline.back().to, DegradeLevel::kNormal);
}

TEST_F(TimedRunTest, ShedRungDropsOnlyExpiredFramesWithAccounting) {
  // A long global spike under sustained load forces the ladder to kShed;
  // every deadline drop must carry reason kDeadline and be late by
  // construction (deadline <= drop time).
  auto runner = make_runner(2);
  ManualClock clock;
  TimedRunConfig cfg = modeled_config(10.0);
  cfg.admission.capacity = 32;
  cfg.admission.deadline_ms = 120.0;
  cfg.faults = FaultInjection::global_spike(0, 40, 80.0);
  OverloadControllerConfig ccfg;
  ccfg.queue_high = 3;
  ccfg.calm_ticks = 4;
  OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);

  TimedRunResult r = runner->run_timed(round_robin_schedules(2, 50.0, 11),
                                       cfg, &clock, &controller);
  expect_accounting_invariants(r);
  EXPECT_GT(r.dropped_deadline, 0);
  for (const TimedFrameRecord& f : r.frames) {
    if (f.drop_reason == DropReason::kDeadline) {
      EXPECT_TRUE(f.dropped);
      EXPECT_GE(f.finish_ms, f.arrival_ms + cfg.admission.deadline_ms);
      EXPECT_GE(f.level, DegradeLevel::kShed);  // only the shed rung drops
    }
  }
}

TEST_F(TimedRunTest, ControllerMeetsDeadlineWhereBaselineViolates) {
  // The SLO claim in miniature: under sustained overload at scale 600
  // (service 30ms vs ~25ms offered inter-arrival per stream pair), the
  // uncontrolled runner blows through the deadline at p99 while the
  // controller caps scale to 360 (service ~10.8ms), drains, and serves
  // nearly everything on time.
  const double deadline_ms = 250.0;
  auto schedules = [&] { return round_robin_schedules(2, 20.0, 21); };

  TimedRunConfig cfg = modeled_config(30.0);
  cfg.admission.capacity = 64;  // roomy: baseline pain is latency, not drops
  cfg.admission.deadline_ms = deadline_ms;

  auto baseline_runner = make_runner(2);
  ManualClock baseline_clock;
  TimedRunResult baseline =
      baseline_runner->run_timed(schedules(), cfg, &baseline_clock, nullptr);

  auto controlled_runner = make_runner(2);
  ManualClock controlled_clock;
  OverloadControllerConfig ccfg;
  ccfg.queue_high = 4;
  ccfg.queue_low = 1;
  ccfg.calm_ticks = 8;
  ccfg.scale_cap = 360;
  OverloadController controller(ccfg, ScaleSet::reg_default(),
                                &controlled_clock);
  TimedRunResult controlled = controlled_runner->run_timed(
      schedules(), cfg, &controlled_clock, &controller);

  expect_accounting_invariants(baseline);
  expect_accounting_invariants(controlled);

  // Baseline: saturated queue, p99 beyond the deadline.
  EXPECT_GT(baseline.latency.p99(), deadline_ms);
  EXPECT_GT(baseline.deadline_violations, 0);

  // Controller: p99 within the deadline, drop rate under 5%.
  EXPECT_LE(controlled.latency.p99(), deadline_ms);
  EXPECT_LT(controlled.drop_rate(), 0.05);
  EXPECT_FALSE(controlled.timeline.empty());
  // And it really used the knob: some frames served at the capped scale.
  bool any_capped = false;
  for (const TimedFrameRecord& f : controlled.frames)
    if (!f.dropped && f.scale_used == 360) any_capped = true;
  EXPECT_TRUE(any_capped);
}

TEST_F(TimedRunTest, RealInferenceRespectsScaleCapAndResetsPerSnippet) {
  // run_inference=true drives the actual pipelines: scale trajectories come
  // from the real regressor, snippet starts reset to init scale, and an
  // externally imposed cap bounds every served scale.
  auto runner = make_runner(2);
  runner->set_scale_cap(360);
  ManualClock clock;
  TimedRunConfig cfg;  // run_inference defaults to true; measured service
  cfg.admission.capacity = 64;
  cfg.admission.deadline_ms = 1e6;  // accounting not under test here
  cfg.service_model = [](int, long, int, DegradeLevel) { return 5.0; };

  TimedRunResult r = runner->run_timed(round_robin_schedules(2, 100.0, 3),
                                       cfg, &clock, nullptr);
  expect_accounting_invariants(r);
  EXPECT_EQ(r.dropped_queue_full + r.dropped_deadline, 0);
  for (const TimedFrameRecord& f : r.frames) {
    ASSERT_FALSE(f.dropped);
    EXPECT_LE(f.scale_used, 360);  // the cap held through real inference
    EXPECT_GT(f.output.detections.forward_ms, 0.0);  // it really ran
  }
}

TEST_F(TimedRunTest, MeasuredServiceCoversTheWholeFrame) {
  // Without a service_model a frame is charged the measured time of both
  // halves: render, flow, lease, forward, decode and regressor.  That is
  // more than the detect + regressor + flow time its output reports.
  auto runner = make_runner(2);
  ManualClock clock;
  TimedRunConfig cfg;
  cfg.admission.capacity = 64;
  cfg.admission.deadline_ms = 1e6;  // accounting not under test here

  TimedRunResult r = runner->run_timed(round_robin_schedules(2, 100.0, 3),
                                       cfg, &clock, nullptr);
  expect_accounting_invariants(r);
  ASSERT_GT(r.served, 0);
  for (const TimedFrameRecord& f : r.frames) {
    ASSERT_FALSE(f.dropped);
    EXPECT_GT(f.finish_ms - f.start_ms, f.output.total_ms())
        << "stream " << f.stream << " frame " << f.seq;
  }
}

TEST_F(TimedRunTest, RunTimedValidatesItsInputsLoudly) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto runner = make_runner(2);
  ManualClock clock;
  TimedRunConfig cfg;
  EXPECT_DEATH(
      runner->run_timed(std::vector<StreamSchedule>(3), cfg, &clock, nullptr),
      "schedules");
  TimedRunConfig no_service;
  no_service.run_inference = false;  // and no service_model
  EXPECT_DEATH(runner->run_timed(std::vector<StreamSchedule>(2), no_service,
                                 &clock, nullptr),
               "service_model");

  // Arrival schedules are a trust boundary.  A NaN arrival never falls due
  // and would spin the loop forever, an out-of-order arrival would be
  // admitted late and charged queueing it never spent, and a null scene
  // cannot be served with run_inference.
  const Scene* scene = &dataset_.val_snippets()[0].frames[0];
  auto with_stream0 = [](StreamSchedule s0) {
    std::vector<StreamSchedule> schedules(2);
    schedules[0] = std::move(s0);
    return schedules;
  };
  TimedRunConfig modeled;
  modeled.run_inference = false;
  modeled.service_model = [](int, long, int, DegradeLevel) { return 2.0; };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(runner->run_timed(with_stream0({{1.0, scene, true},
                                               {nan, scene, false}}),
                                 modeled, &clock, nullptr),
               "stream 0 frame 1: arrival time is not finite");
  EXPECT_DEATH(runner->run_timed(with_stream0({{3.0, scene, true},
                                               {10.0, scene, false},
                                               {4.0, scene, false}}),
                                 modeled, &clock, nullptr),
               "stream 0 frame 2: arrival time is earlier");
  EXPECT_DEATH(runner->run_timed(with_stream0({{1.0, nullptr, true}}), cfg,
                                 &clock, nullptr),
               "stream 0 frame 0: scene is null");
}

}  // namespace
}  // namespace ada
