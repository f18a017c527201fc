// loadgen — arrival-driven load generator + SLO harness for the serving
// runtime.
//
// Every bench so far pulled work (run as fast as the hardware allows);
// this tool pushes it: frames arrive on Poisson or bursty per-stream
// schedules over a mix of scenario snippets (drone / driving / mixed
// themes), pass through bounded deadline-stamped admission queues
// (runtime/admission.h), and are served by MultiStreamRunner::run_timed in
// virtual time — each frame is charged its *measured* wall time on the
// trained models (render, lease, forward, decode, regressor), but
// queueing/deadline arithmetic advances an injected ManualClock, so a
// minutes-long overload scenario replays in seconds and the same seed gives
// the same arrival trace on any machine.
//
// Two runs over the same schedules: an uncontrolled baseline (serve
// everything at whatever the backlog does to latency) and a run under the
// AdaScale graceful-degradation controller (runtime/overload_controller.h),
// reporting p50/p95/p99 latency, drop rate, deadline violation rate, and
// the degradation timeline side by side.  The arrival rates auto-calibrate
// against the measured service rate (override with --rate / --burst-rate),
// so "overload" means overload on the machine at hand.
//
// Usage: loadgen [options]
//   --streams N          serving streams (default 3)
//   --scenario NAME      drone | driving | mixed (default mixed)
//   --snippets N         snippets per stream (default 6)
//   --rate HZ            per-stream base arrival rate (0 = auto: ~0.6x
//                        aggregate capacity at scale 600)
//   --burst-rate HZ      per-stream in-burst rate (0 = auto: ~2x capacity)
//   --burst-period MS    burst cycle length (default 1000)
//   --burst-len MS       burst window inside each cycle (default 400;
//                        0 = pure Poisson, no bursts)
//   --deadline MS        per-frame deadline (0 = auto: 15x measured
//                        service at scale 600)
//   --capacity N         per-stream admission queue bound (default 64)
//   --scale-cap N        controller's degraded scale (default 360)
//   --seed N             schedule seed (default 2019)
//   --no-controller      baseline run only
//   --json PATH          also write the report as JSON
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/video.h"
#include "experiments/harness.h"
#include "runtime/multi_stream.h"
#include "runtime/overload_controller.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/timer.h"

using namespace ada;

namespace {

struct Options {
  int streams = 3;
  std::string scenario = "mixed";
  int snippets = 6;
  double rate_hz = 0.0;
  double burst_rate_hz = 0.0;
  double burst_period_ms = 1000.0;
  double burst_len_ms = 400.0;
  double deadline_ms = 0.0;
  int capacity = 64;
  int scale_cap = 360;
  std::uint64_t seed = 2019;
  bool controller = true;
  std::string json_path;
};

[[noreturn]] void usage_fail(const char* why) {
  std::fprintf(stderr, "loadgen: %s (see the header comment for options)\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_fail("missing option value");
      return argv[++i];
    };
    if (a == "--streams") o.streams = std::atoi(next());
    else if (a == "--scenario") o.scenario = next();
    else if (a == "--snippets") o.snippets = std::atoi(next());
    else if (a == "--rate") o.rate_hz = std::atof(next());
    else if (a == "--burst-rate") o.burst_rate_hz = std::atof(next());
    else if (a == "--burst-period") o.burst_period_ms = std::atof(next());
    else if (a == "--burst-len") o.burst_len_ms = std::atof(next());
    else if (a == "--deadline") o.deadline_ms = std::atof(next());
    else if (a == "--capacity") o.capacity = std::atoi(next());
    else if (a == "--scale-cap") o.scale_cap = std::atoi(next());
    else if (a == "--seed")
      o.seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (a == "--no-controller") o.controller = false;
    else if (a == "--json") o.json_path = next();
    else usage_fail("unknown option");
  }
  if (o.streams < 1) usage_fail("--streams must be >= 1");
  if (o.snippets < 1) usage_fail("--snippets must be >= 1");
  if (o.scenario != "mixed" && o.scenario != "drone" &&
      o.scenario != "driving")
    usage_fail("--scenario must be drone | driving | mixed");
  return o;
}

SnippetTheme scenario_theme(const std::string& scenario, int index) {
  if (scenario == "drone") return SnippetTheme::kSmallObjects;
  if (scenario == "driving") return SnippetTheme::kLargeObject;
  // mixed: rotate through every regime so the scale trajectory actually
  // moves (the controller's cap interacts with a live trajectory, not a
  // constant).
  switch (index % 3) {
    case 0: return SnippetTheme::kSmallObjects;
    case 1: return SnippetTheme::kLargeObject;
    default: return SnippetTheme::kMixed;
  }
}

void print_run(const char* label, const TimedRunResult& r,
               double deadline_ms) {
  std::printf("%-12s p50 %7.1f ms  p95 %7.1f ms  p99 %7.1f ms  "
              "max %7.1f ms\n",
              label, r.latency.p50(), r.latency.p95(), r.latency.p99(),
              r.latency.max());
  std::printf("             offered %ld  served %ld  dropped %ld "
              "(queue_full %ld, deadline %ld)  drop_rate %.2f%%\n",
              r.offered, r.served, r.dropped_queue_full + r.dropped_deadline,
              r.dropped_queue_full, r.dropped_deadline,
              100.0 * r.drop_rate());
  std::printf("             deadline %.0f ms: violations %ld (%.2f%% of "
              "served)  p99_met %s  makespan %.0f ms\n",
              deadline_ms, r.deadline_violations,
              r.served > 0 ? 100.0 * static_cast<double>(
                                 r.deadline_violations) /
                                 static_cast<double>(r.served)
                           : 0.0,
              r.latency.p99() <= deadline_ms ? "yes" : "NO",
              r.makespan_ms);
}

void emit_run_json(JsonWriter* jw, const TimedRunResult& r,
                   double deadline_ms) {
  jw->key("p50_ms").value(r.latency.p50());
  jw->key("p95_ms").value(r.latency.p95());
  jw->key("p99_ms").value(r.latency.p99());
  jw->key("max_ms").value(r.latency.max());
  jw->key("offered").value(static_cast<long long>(r.offered));
  jw->key("served").value(static_cast<long long>(r.served));
  jw->key("dropped_queue_full")
      .value(static_cast<long long>(r.dropped_queue_full));
  jw->key("dropped_deadline")
      .value(static_cast<long long>(r.dropped_deadline));
  jw->key("drop_rate").value(r.drop_rate());
  jw->key("deadline_violations")
      .value(static_cast<long long>(r.deadline_violations));
  jw->key("p99_deadline_met").value(r.latency.p99() <= deadline_ms);
  jw->key("makespan_ms").value(r.makespan_ms);
  jw->key("degrade_timeline");
  jw->begin_array();
  for (const DegradeEvent& e : r.timeline) {
    jw->begin_object();
    jw->key("ms").value(e.ms);
    jw->key("from").value(degrade_level_name(e.from));
    jw->key("to").value(degrade_level_name(e.to));
    jw->key("depth").value(e.depth);
    jw->key("slack_ms").value(e.slack_ms);
    jw->end_object();
  }
  jw->end_array();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  std::printf("loadgen: overload/SLO harness (virtual-time serving)\n");
  std::printf("====================================================\n\n");

  Harness h = make_vid_harness(default_cache_dir());
  std::unique_ptr<Detector> det =
      clone_detector(h.detector(ScaleSet::train_default()));
  std::unique_ptr<ScaleRegressor> reg = clone_regressor(h.regressor(
      ScaleSet::train_default(), h.default_regressor_config()));
  det->set_execution_policy(ExecutionPolicy::fp32());
  reg->set_execution_policy(ExecutionPolicy::fp32());

  // Scenario mix: each stream gets its own themed snippet list (its
  // arrival trace covers them in order; streams churn idle between
  // snippets as the schedule dictates).
  SnippetGenerator gen(&h.dataset().catalog(), h.dataset().video_config());
  Rng gen_rng(opt.seed ^ 0x5ce9a12u);
  std::vector<std::vector<Snippet>> stream_snippets(
      static_cast<std::size_t>(opt.streams));
  for (int s = 0; s < opt.streams; ++s)
    for (int j = 0; j < opt.snippets; ++j)
      stream_snippets[static_cast<std::size_t>(s)].push_back(
          gen.generate_with_theme(
              scenario_theme(opt.scenario, s * opt.snippets + j), &gen_rng));

  // Calibrate service cost at scale 600 on a few frames so auto rates and
  // deadlines mean the same thing on every machine.  A frame is timed
  // whole, render included, because that is what the timed run charges.
  double svc600_ms;
  {
    AdaScalePipeline probe(det.get(), reg.get(), &h.renderer(),
                           h.dataset().scale_policy(),
                           ScaleSet::reg_default(), 600,
                           /*snap_to_set=*/true);
    const Snippet& clip = stream_snippets[0][0];
    probe.process(clip.frames[0]);  // warm caches/arena
    probe.reset();
    Timer probe_timer;
    const int probe_frames = std::min(4, clip.num_frames());
    for (int f = 0; f < probe_frames; ++f)
      probe.process(clip.frames[static_cast<std::size_t>(f)]);
    svc600_ms = probe_timer.elapsed_ms() / probe_frames;
  }
  const double capacity_hz = 1000.0 / svc600_ms;  // one shared worker
  // Auto rates: healthy between bursts (0.6x capacity at scale 600),
  // overloaded inside them (2x) — but within what the scale-cap rung can
  // absorb (cost ~quadratic in scale, so capacity at 360 is ~2.8x).
  const double base_rate =
      opt.rate_hz > 0.0 ? opt.rate_hz : 0.6 * capacity_hz / opt.streams;
  const double burst_rate = opt.burst_rate_hz > 0.0
                                ? opt.burst_rate_hz
                                : 2.0 * capacity_hz / opt.streams;
  const double deadline_ms =
      opt.deadline_ms > 0.0 ? opt.deadline_ms : 15.0 * svc600_ms;

  std::printf("scenario %s: %d streams x %d snippets, seed %llu\n",
              opt.scenario.c_str(), opt.streams, opt.snippets,
              static_cast<unsigned long long>(opt.seed));
  std::printf("measured service @600: %.1f ms (capacity %.1f fps)\n",
              svc600_ms, capacity_hz);
  std::printf("arrivals/stream: base %.1f Hz, burst %.1f Hz "
              "(%.0f ms of every %.0f ms)\n",
              base_rate, burst_rate, opt.burst_len_ms, opt.burst_period_ms);
  std::printf("deadline %.0f ms, queue capacity %d\n\n", deadline_ms,
              opt.capacity);

  auto make_schedules = [&]() {
    std::vector<StreamSchedule> schedules;
    for (int s = 0; s < opt.streams; ++s) {
      std::vector<const Snippet*> jobs;
      for (const Snippet& sn : stream_snippets[static_cast<std::size_t>(s)])
        jobs.push_back(&sn);
      Rng rng(opt.seed + 31u * static_cast<std::uint64_t>(s));
      schedules.push_back(
          opt.burst_len_ms > 0.0
              ? bursty_schedule(jobs, base_rate, burst_rate,
                                opt.burst_period_ms, opt.burst_len_ms, 0.0,
                                &rng)
              : poisson_schedule(jobs, base_rate, 0.0, &rng));
    }
    return schedules;
  };

  TimedRunConfig cfg;  // run_inference=true: measured per-frame service
  cfg.admission.capacity = opt.capacity;
  cfg.admission.deadline_ms = deadline_ms;

  MultiStreamRunner baseline_runner(det.get(), reg.get(), &h.renderer(),
                                    h.dataset().scale_policy(),
                                    ScaleSet::reg_default(), opt.streams,
                                    600, /*snap_scales=*/true);
  ManualClock baseline_clock;
  const TimedRunResult baseline =
      baseline_runner.run_timed(make_schedules(), cfg, &baseline_clock,
                                nullptr);
  print_run("baseline", baseline, deadline_ms);

  TimedRunResult controlled;
  OverloadControllerConfig ccfg;
  if (opt.controller) {
    std::printf("\n");
    MultiStreamRunner runner(det.get(), reg.get(), &h.renderer(),
                             h.dataset().scale_policy(),
                             ScaleSet::reg_default(), opt.streams, 600,
                             /*snap_scales=*/true);
    ManualClock clock;
    ccfg.scale_cap = opt.scale_cap;
    // Escalate while the head-of-line still has half its deadline left —
    // waiting for queue_high alone reacts a full backlog too late.
    ccfg.slack_low_ms = 0.5 * deadline_ms;
    // And give each rung ~10 service times to bite before escalating past
    // it (a backlog spike otherwise walks the whole ladder within one
    // burst's first milliseconds).
    ccfg.min_dwell_ms = 10.0 * svc600_ms;
    OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);
    controlled = runner.run_timed(make_schedules(), cfg, &clock, &controller);
    print_run("controller", controlled, deadline_ms);
    std::printf("             degradation timeline: %zu transitions, "
                "final level %s\n",
                controlled.timeline.size(),
                degrade_level_name(controlled.final_level));
    for (const DegradeEvent& e : controlled.timeline)
      std::printf("               %8.0f ms  %-13s -> %-13s "
                  "(depth %d, slack %.0f ms)\n",
                  e.ms, degrade_level_name(e.from), degrade_level_name(e.to),
                  e.depth, e.slack_ms);
  }

  if (!opt.json_path.empty()) {
    JsonWriter jw;
    jw.begin_object();
    jw.key("tool").value("loadgen");
    jw.key("scenario").value(opt.scenario);
    jw.key("streams").value(opt.streams);
    jw.key("seed").value(static_cast<long long>(opt.seed));
    jw.key("service_ms_at_600").value(svc600_ms);
    jw.key("base_rate_hz").value(base_rate);
    jw.key("burst_rate_hz").value(burst_rate);
    jw.key("deadline_ms").value(deadline_ms);
    jw.key("capacity").value(opt.capacity);
    jw.key("baseline");
    jw.begin_object();
    emit_run_json(&jw, baseline, deadline_ms);
    jw.end_object();
    if (opt.controller) {
      jw.key("controller");
      jw.begin_object();
      emit_run_json(&jw, controlled, deadline_ms);
      jw.end_object();
    }
    jw.end_object();
    std::ofstream out(opt.json_path);
    out << jw.str() << "\n";
    std::printf("\nwrote %s\n", opt.json_path.c_str());
  }

  std::printf("\nloadgen: ok\n");
  return 0;
}
