// servebench: the serving benchmark (metrics, workloads and known gaps are
// described in ../README.md).
//
//   servebench --prepare --cache DIR
//       trains (or loads) the standard VID harness models into DIR.
//   servebench --workload NAME --seed N --seconds S --trace 0|1 --cache DIR
//              [--trace-out FILE]
//       sets up a serving process, serves the workload's snippets in the
//       order --seed gives, checks the outputs and prints one metric per
//       line, then the result as one JSON object on the last line.
//       --trace 1 adds the traced replay and prints the per-layer metrics
//       instead of the end-to-end ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "detection/box.h"
#include "eval/map_evaluator.h"
#include "runtime/exec_plan.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "util/latency_histogram.h"
#include "util/timer.h"

namespace servebench {
namespace {

using namespace ada;

// ---------------------------------------------------------------- settings

// Set-ups per run (setup_s is their median): at least kSetupMinReps, and
// more while they fit in kSetupMinSeconds, so millisecond fp32 set-ups get
// enough samples while an int8 set-up (about a second) stays at three.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;
constexpr int kMinPasses = 3;      // timed passes per run, at least
constexpr int kMaxBatch = 4;       // run_batched's max_batch
constexpr double kLoadLimitS = 30.0;  // a warm model load takes milliseconds

// Snippet content and arrival sample paths are fixed; --seed decides which
// stream serves which snippet and in what order.  With content drawn from
// the seed, mAP over 32 snippets ranged 17.3-25.9 over five seeds, and with
// arrival paths drawn from it, p99 latency of one 288-frame run ranged
// 27-54 ms: spreads no usable regression bound could absorb.
constexpr unsigned long long kInputSeed = 0x5E4BE4C4ULL;
constexpr unsigned long long kArrivalSeed = 0xA771BA15ULL;

// arrivals: fixed absolute rates, never derived from measured capacity.
// The reference rate is light load, about an eighth of one worker's
// capacity (about 100 frames/s on a 4-core AVX-512 host).  Queueing
// amplifies host-speed noise: over ten processes serving the same snippets
// the p99 ranged 24-51 ms at 24 frames/s and 18-24 ms at 12 frames/s.
constexpr double kRefRateFps = 12.0;  // aggregate over all streams
const std::vector<double> kRateLadderFps = {12, 24, 36, 48, 72, 96, 144, 192, 288};
constexpr double kDeadlineMs = 100.0;
constexpr int kQueueCapacity = 8;
constexpr int kScaleCap = 360;
constexpr double kDwellMs = 100.0;
constexpr int kWarmupSnippets = 4;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"table-mixed", Mode::kTable, 16, 32, /*mixed=*/true, /*dff=*/false},
      {"table-dff", Mode::kTable, 16, 32, false, true},
      {"batched", Mode::kBatched, 4, 32, false, false},
      {"arrivals", Mode::kArrivals, 4, 24, false, false},
  };
  return all;
}

// ----------------------------------------------------------------- options

struct Options {
  bool prepare = false;
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string cache_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\n"
               "usage: servebench --prepare --cache DIR\n"
               "       servebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cache DIR [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + a);
      return argv[++i];
    };
    auto number = [&](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') usage(a + " needs a number, got " + v);
      return d;
    };
    if (a == "--prepare") {
      o.prepare = true;
    } else if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs an unsigned integer");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = number(next());
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--cache") {
      o.cache_dir = next();
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.cache_dir.empty()) usage("--cache is required");
  if (o.prepare) return o;
  if (!have_seed || !have_seconds || !have_trace || o.workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  std::string known;
  for (const Workload& w : workloads()) known += " " + w.name;
  usage("unknown workload " + name + " (known:" + known + ")");
}

// ----------------------------------------------------------------- results

struct Metric {
  std::string name;
  std::string unit;
  const char* better;  // "higher" | "lower"
  double value;
  long samples;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metric(const Metric& m) {
  std::printf("metric %s = %s %s (%s is better, n=%ld)\n", m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(), m.better, m.samples);
}

struct Check {
  std::string name;
  bool pass;
  std::string detail;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ set-up

/// Fails the run with a named reason when the model load does not finish
/// quickly: a load from the prepared cache takes milliseconds, so a slow
/// one means the harness is training inside a timed run.
class LoadWatchdog {
 public:
  explicit LoadWatchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, std::chrono::duration<double>(limit_s),
                            [this] { return done_; })) {
            std::printf(
                "check model_cache: FAIL (models not prepared: loading did "
                "not finish in %.0f s, so the harness is training; run "
                "servebench --prepare first)\n",
                limit_s);
            std::fflush(stdout);
            std::_Exit(3);
          }
        }) {}
  ~LoadWatchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  LoadWatchdog(const LoadWatchdog&) = delete;
  LoadWatchdog& operator=(const LoadWatchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

/// The harness of the standard VID models.  Constructed from the prvalue so
/// it never moves: its renderer points into its own dataset.  Generating its
/// training/validation split is input generation, outside the timed set-up.
std::unique_ptr<Harness> vid_harness(const std::string& cache_dir) {
  return std::unique_ptr<Harness>(new Harness(make_vid_harness(cache_dir)));
}

std::unique_ptr<Server> set_up(const Workload& w, const std::string& cache_dir,
                               SpanRecorder* rec) {
  auto s = std::make_unique<Server>();
  s->harness = vid_harness(cache_dir);
  // A fresh process races every int8 geometry again.
  clear_autotune_cache();
  const ScaleSet sreg = ScaleSet::reg_default();
  Timer total;
  {
    ScopedSpan span(rec, "experiments.load", -1);
    LoadWatchdog guard(kLoadLimitS);
    Timer t;
    s->det = s->harness->detector(ScaleSet::train_default());
    s->reg = s->harness->regressor(ScaleSet::train_default(),
                                   s->harness->default_regressor_config());
    s->load_ms = t.elapsed_ms();
  }
  {
    ScopedSpan span(rec, "experiments.mixed_precision", -1);
    Timer t;
    if (w.mixed) {
      s->harness->prepare_mixed_precision(s->det, s->reg);
    } else {
      s->det->set_execution_policy(ExecutionPolicy::fp32());
      s->reg->set_execution_policy(ExecutionPolicy::fp32());
    }
    s->precision_ms = t.elapsed_ms();
  }
  {
    ScopedSpan span(rec, "runtime.stream_table.build", -1);
    Timer t;
    s->runner = std::make_unique<MultiStreamRunner>(
        s->det, s->reg, &s->harness->renderer(),
        s->harness->dataset().scale_policy(), sreg, w.streams,
        /*init_scale=*/600, /*snap_scales=*/true);
    if (w.dff) s->runner->set_dff(s->dff);
    s->runner_ms = t.elapsed_ms();
  }
  {
    ScopedSpan span(rec, "runtime.exec_plan.build", -1);
    Timer t;
    Detector* det = s->runner->model_table()->master_detector();
    ScaleRegressor* reg = s->runner->model_table()->master_regressor();
    const ScalePolicy& policy = s->harness->dataset().scale_policy();
    const int max_n = w.mode == Mode::kBatched ? kMaxBatch : 1;
    for (int scale : sreg.scales) {
      const int h = policy.render_h(scale), wd = policy.render_w(scale);
      const Detector::ConvStackEntry head = det->conv_stack(h, wd).back();
      for (int n = 1; n <= max_n; ++n) {
        det->plan_for(n, h, wd);
        reg->plan_for(n, head.in_h, head.in_w);
      }
    }
    s->plan_ms = t.elapsed_ms();
  }
  s->total_ms = total.elapsed_ms();
  return s;
}

// ------------------------------------------------------------------ inputs

/// One input frame of a stream, in the order the stream serves it.
struct FrameRef {
  const Scene* scene = nullptr;
  const Scene* next = nullptr;  // next frame of the same snippet
  bool snippet_start = false;
};

/// Job j goes to stream j % streams (the runner's assignment contract).
std::vector<std::vector<FrameRef>> frames_by_stream(
    const std::vector<const Snippet*>& jobs, int streams) {
  std::vector<std::vector<FrameRef>> out(static_cast<std::size_t>(streams));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::vector<Scene>& frames = jobs[j]->frames;
    for (std::size_t f = 0; f < frames.size(); ++f)
      out[j % static_cast<std::size_t>(streams)].push_back(
          {&frames[f], f + 1 < frames.size() ? &frames[f + 1] : nullptr,
           f == 0});
  }
  return out;
}

/// mAP@0.5 x 100 in reference coordinates; a null output is a dropped
/// frame and scores as missed.
double map_pct(const Harness& h,
               const std::vector<std::pair<const Scene*, const DetectionOutput*>>&
                   frames) {
  std::vector<std::string> names;
  for (const ClassSignature& c : h.dataset().catalog().all())
    names.push_back(c.name);
  MapEvaluator ev(names);
  for (const auto& [scene, out] : frames) {
    std::vector<EvalDetection> dets;
    if (out != nullptr)
      for (const Detection& d : out->detections) {
        EvalDetection e;
        e.box = rescale_box(d.box, out->image_h, out->image_w,
                            h.reference_h(), h.reference_w());
        e.class_id = d.class_id;
        e.score = d.score;
        dets.push_back(e);
      }
    ev.add_frame(scene_ground_truth(*scene, h.reference_h(), h.reference_w()),
                 dets);
  }
  return 100.0 * static_cast<double>(ev.compute(0.5f, 0.35f).map);
}

// ----------------------------------------------------------------- serving

/// What one run measured, before it is turned into metrics.
struct Measured {
  std::vector<double> fps;      // per timed serving call
  LatencyHistogram latency;     // per served frame
  LatencyHistogram queue_wait;  // arrivals: start - arrival
  LatencyHistogram service;     // per served frame, as the runner accounts it
  double map = 0.0;
  long map_frames = 0;
  long attempted = 0;
  long failed = 0;
  // arrivals only
  long offered_ref = 0, missed_ref = 0;
  double slo_rate_fps = 0.0;
  long transitions = 0;
  long capped = 0;
  int ref_runs = 0;
  // result metrics over every served frame of the measured calls
  double macs = 0.0;
  double scale_sum = 0.0;
  long backbone_frames = 0;
  long served = 0;
  long batch_frames = 0, batches = 0, singles = 0;
  // what the traced replay replays: served frames, pointing into the
  // recorded run kept here
  MultiStreamResult drain_ref;
  TimedRunResult timed_ref;
  std::vector<ServedFrame> replay_order;
  double serial_ms_per_frame = 0.0;
};

void count_frame(const Server& s, const AdaFrameOutput& out, Measured* m) {
  const bool backbone = !out.dff || out.dff_key;
  const ScalePolicy& policy = s.harness->dataset().scale_policy();
  if (backbone) {
    m->macs += static_cast<double>(s.det->forward_macs(
        policy.render_h(out.scale_used), policy.render_w(out.scale_used)));
    ++m->backbone_frames;
  }
  m->scale_sum += out.scale_used;
  ++m->served;
}

void serve_drain(Server* s, const Workload& w,
                 const std::vector<const Snippet*>& jobs,
                 const std::vector<std::vector<FrameRef>>& by_stream,
                 double seconds, std::vector<Check>* checks, Measured* m) {
  long expected = 0;
  for (const Snippet* j : jobs) expected += j->num_frames();

  // Warm-up and reference: one worker, fully sequential.
  m->drain_ref = s->runner->run_serial(jobs);
  const MultiStreamResult& ref = m->drain_ref;
  bool ref_ok = ref.total_frames == expected;
  for (std::size_t st = 0; st < by_stream.size(); ++st)
    ref_ok = ref_ok && ref.streams[st].frames.size() == by_stream[st].size();
  checks->push_back({"serial_reference", ref_ok,
                     std::to_string(ref.total_frames) + " of " +
                         std::to_string(expected) + " frames served"});
  if (!ref_ok) return;

  std::string mismatch;
  int passes = 0;
  Timer phase;
  while (passes < kMinPasses || phase.elapsed_s() < seconds) {
    BatchSchedulerConfig bcfg;
    bcfg.max_batch = kMaxBatch;
    Timer t;
    const MultiStreamResult r = w.mode == Mode::kBatched
                                    ? s->runner->run_batched(jobs, bcfg)
                                    : s->runner->run(jobs);
    const double wall_ms = t.elapsed_ms();
    ++passes;
    m->fps.push_back(1000.0 * static_cast<double>(r.total_frames) / wall_ms);
    m->attempted += expected;
    m->failed += expected - r.total_frames;
    for (std::size_t st = 0; st < r.streams.size() && mismatch.empty(); ++st) {
      const std::vector<AdaFrameOutput>& got = r.streams[st].frames;
      const std::vector<AdaFrameOutput>& want = ref.streams[st].frames;
      if (got.size() != want.size()) {
        mismatch = "stream " + std::to_string(st) + " served " +
                   std::to_string(got.size()) + " frames, reference " +
                   std::to_string(want.size());
        break;
      }
      for (std::size_t f = 0; f < got.size(); ++f)
        if (!same_output(got[f], want[f])) {
          mismatch = "pass " + std::to_string(passes) + " stream " +
                     std::to_string(st) + " frame " + std::to_string(f);
          break;
        }
    }
    for (const StreamOutput& so : r.streams)
      for (const AdaFrameOutput& out : so.frames) {
        m->latency.record(out.total_ms());
        m->service.record(out.total_ms());
        count_frame(*s, out, m);
      }
    if (r.batched) {
      m->batch_frames += r.batch_stats.frames;
      m->batches += r.batch_stats.batches;
      m->singles += r.batch_stats.single_fallbacks;
    }
  }
  checks->push_back({"timed_equals_reference", mismatch.empty(),
                     mismatch.empty()
                         ? std::to_string(passes) +
                               " passes byte-identical to the serial pass"
                         : mismatch});

  // mAP of the reference, which every timed pass reproduced.
  std::vector<std::pair<const Scene*, const DetectionOutput*>> scored;
  for (std::size_t st = 0; st < by_stream.size(); ++st)
    for (std::size_t f = 0; f < by_stream[st].size(); ++f)
      scored.emplace_back(by_stream[st][f].scene,
                          &ref.streams[st].frames[f].detections);
  m->map = map_pct(*s->harness, scored);
  m->map_frames = static_cast<long>(scored.size());

  // Replay order: the one-worker table loop's round robin over streams.
  std::size_t longest = 0;
  for (const auto& frames : by_stream) longest = std::max(longest, frames.size());
  for (std::size_t f = 0; f < longest; ++f)
    for (std::size_t st = 0; st < by_stream.size(); ++st)
      if (f < by_stream[st].size())
        m->replay_order.push_back({static_cast<int>(st), static_cast<long>(f),
                                   by_stream[st][f].scene,
                                   by_stream[st][f].next,
                                   by_stream[st][f].snippet_start,
                                   &ref.streams[st].frames[f]});
}

struct TimedServe {
  TimedRunResult result;
  double wall_ms = 0.0;
};

/// One timed run at `rate_fps` aggregate on Poisson sample path `path`.
TimedServe serve_at(Server* s, const std::vector<std::vector<const Snippet*>>& stream_jobs,
                    double rate_fps, int path) {
  const int n = static_cast<int>(stream_jobs.size());
  std::vector<StreamSchedule> schedules;
  for (int st = 0; st < n; ++st) {
    Rng rng(kArrivalSeed + 7919ULL * static_cast<unsigned long long>(st) +
            104729ULL * static_cast<unsigned long long>(path));
    schedules.push_back(poisson_schedule(stream_jobs[static_cast<std::size_t>(st)],
                                         rate_fps / n, 0.0, &rng));
  }
  TimedRunConfig cfg;
  cfg.admission.capacity = kQueueCapacity;
  cfg.admission.deadline_ms = kDeadlineMs;
  OverloadControllerConfig ccfg;
  ccfg.scale_cap = kScaleCap;
  ccfg.slack_low_ms = 0.5 * kDeadlineMs;
  ccfg.min_dwell_ms = kDwellMs;
  ManualClock clock(0.0);
  OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);
  TimedServe out;
  Timer t;
  out.result = s->runner->run_timed(schedules, cfg, &clock, &controller);
  out.wall_ms = t.elapsed_ms();
  return out;
}

bool meets_slo(const TimedRunResult& r) {
  return r.dropped_queue_full + r.dropped_deadline == 0 &&
         r.latency.p99() <= kDeadlineMs;
}

void print_rung(double rate, const TimedServe& ts) {
  const TimedRunResult& r = ts.result;
  std::printf("ladder %s fps: p50 %s ms, p99 %s ms, served %ld, dropped %ld, "
              "late %ld, controller transitions %zu, wall %s ms -> %s\n",
              number(rate).c_str(), number(r.latency.p50()).c_str(),
              number(r.latency.p99()).c_str(), r.served,
              r.dropped_queue_full + r.dropped_deadline, r.deadline_violations,
              r.timeline.size(), number(ts.wall_ms).c_str(),
              meets_slo(r) ? "meets SLO" : "misses SLO");
}

void serve_arrivals(Server* s, const std::vector<const Snippet*>& jobs,
                    const std::vector<std::vector<FrameRef>>& by_stream,
                    double seconds,
                    std::vector<Check>* checks, Measured* m) {
  const int n = static_cast<int>(by_stream.size());
  std::vector<std::vector<const Snippet*>> stream_jobs(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < jobs.size(); ++j)
    stream_jobs[j % static_cast<std::size_t>(n)].push_back(jobs[j]);
  long expected = 0;
  for (const Snippet* j : jobs) expected += j->num_frames();

  // Warm-up: plans are built in set-up; this grows the arenas.
  s->runner->run_serial(std::vector<const Snippet*>(
      jobs.begin(), jobs.begin() + std::min<std::size_t>(kWarmupSnippets, jobs.size())));

  std::string accounting;
  auto account = [&](const TimedRunResult& r, double rate) {
    const bool ok = r.offered == expected &&
                    r.offered == r.served + r.dropped_queue_full + r.dropped_deadline &&
                    static_cast<long>(r.frames.size()) == r.offered;
    if (!ok && accounting.empty())
      accounting = "at " + number(rate) + " fps: offered " + std::to_string(r.offered) +
                   ", served " + std::to_string(r.served) + ", dropped " +
                   std::to_string(r.dropped_queue_full) + "+" +
                   std::to_string(r.dropped_deadline) + ", records " +
                   std::to_string(r.frames.size());
  };

  std::vector<double> maps;
  bool ref_meets_slo = true;
  Timer phase;
  while (m->ref_runs < kMinPasses || phase.elapsed_s() < seconds) {
    TimedServe ts = serve_at(s, stream_jobs, kRefRateFps, m->ref_runs);
    const TimedRunResult& r = ts.result;
    account(r, kRefRateFps);
    print_rung(kRefRateFps, ts);
    ++m->ref_runs;
    if (m->ref_runs == 1) ref_meets_slo = meets_slo(r);
    m->fps.push_back(1000.0 * static_cast<double>(r.served) / ts.wall_ms);
    m->attempted += r.offered;
    m->failed += r.dropped_queue_full + r.dropped_deadline;
    m->offered_ref += r.offered;
    m->missed_ref += r.dropped_queue_full + r.dropped_deadline + r.deadline_violations;
    m->transitions += static_cast<long>(r.timeline.size());
    std::vector<std::pair<const Scene*, const DetectionOutput*>> scored;
    std::map<std::pair<int, long>, const DetectionOutput*> served;
    for (const TimedFrameRecord& f : r.frames) {
      if (f.dropped) continue;
      m->latency.record(f.finish_ms - f.arrival_ms);
      m->queue_wait.record(f.start_ms - f.arrival_ms);
      m->service.record(f.finish_ms - f.start_ms);
      if (f.level >= DegradeLevel::kScaleCap) ++m->capped;
      count_frame(*s, f.output, m);
      served[{f.stream, f.seq}] = &f.output.detections;
    }
    for (int st = 0; st < n; ++st)
      for (std::size_t f = 0; f < by_stream[static_cast<std::size_t>(st)].size(); ++f) {
        const auto it = served.find({st, static_cast<long>(f)});
        scored.emplace_back(by_stream[static_cast<std::size_t>(st)][f].scene,
                            it == served.end() ? nullptr : it->second);
      }
    maps.push_back(map_pct(*s->harness, scored));
    m->map_frames = static_cast<long>(scored.size());
    if (m->ref_runs == 1) {
      m->serial_ms_per_frame = ts.wall_ms / static_cast<double>(std::max<long>(r.served, 1));
      m->timed_ref = std::move(ts.result);
    }
  }
  m->map = median(maps);

  // SLO ladder: binary search for the highest rung that holds, taking the
  // reference rate's verdict as known (assumes a rung that fails is not
  // followed by one that holds).
  const int rungs = static_cast<int>(kRateLadderFps.size());
  const int ref_rung = static_cast<int>(
      std::find(kRateLadderFps.begin(), kRateLadderFps.end(), kRefRateFps) -
      kRateLadderFps.begin());
  int lo = ref_meets_slo ? ref_rung : -1;  // highest rung known to hold
  int hi = ref_meets_slo ? rungs : ref_rung;  // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = kRateLadderFps[static_cast<std::size_t>(mid)];
    const TimedServe ts = serve_at(s, stream_jobs, rate, 1000 + mid);
    account(ts.result, rate);
    print_rung(rate, ts);
    (meets_slo(ts.result) ? lo : hi) = mid;
  }
  m->slo_rate_fps = lo >= 0 ? kRateLadderFps[static_cast<std::size_t>(lo)] : 0.0;
  checks->push_back({"arrivals_accounting", accounting.empty(),
                     accounting.empty()
                         ? "offered == served + dropped_queue_full + "
                           "dropped_deadline on every timed run"
                         : accounting});

  // Replay order: the first reference-rate run, in service order.
  std::map<std::pair<int, long>, const FrameRef*> refs;
  for (int st = 0; st < n; ++st)
    for (std::size_t f = 0; f < by_stream[static_cast<std::size_t>(st)].size(); ++f)
      refs[{st, static_cast<long>(f)}] = &by_stream[static_cast<std::size_t>(st)][f];
  for (const TimedFrameRecord& f : m->timed_ref.frames) {
    if (f.dropped) continue;
    const FrameRef* ref = refs.at({f.stream, f.seq});
    m->replay_order.push_back({f.stream, f.seq, ref->scene, ref->next,
                               ref->snippet_start, &f.output});
  }
}

// ------------------------------------------------------------- per-layer

/// Durations of the spans of one name; `probes`: -1 any, 0 served frames
/// only, 1 probes only; `scale` 0 matches every scale.
std::vector<double> span_ms(const SpanRecorder& rec, const std::string& name,
                            int probes, int scale = 0) {
  std::vector<double> out;
  for (const Span& sp : rec.spans())
    if (name == sp.name && (probes < 0 || sp.probe == (probes == 1)) &&
        (scale == 0 || sp.scale == scale))
      out.push_back(sp.dur_ms());
  return out;
}

/// a / b, or 0 when nothing was measured (keeps the JSON numeric).
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::vector<Metric> per_layer_metrics(Server* s, const Workload& w,
                                      const Measured& m,
                                      const std::vector<double>& load_ms,
                                      const std::vector<double>& precision_ms,
                                      const std::vector<double>& runner_ms,
                                      const std::vector<double>& plan_ms,
                                      const SpanRecorder& rec,
                                      const ReplayResult& rr) {
  std::vector<Metric> out;
  auto span_metric = [&](const std::string& metric, const std::string& name,
                         int probes) {
    const std::vector<double> d = span_ms(rec, name, probes);
    out.push_back({metric, "ms", "lower", median(d), static_cast<long>(d.size())});
  };
  span_metric("data.render_ms", "data.render", 0);
  double macs2 = 0.0, probe_ms = 0.0;
  long probe_n = 0;
  const ScalePolicy& policy = s->harness->dataset().scale_policy();
  std::string per_scale = "report forward GOP/s per scale (time should track MACs):";
  for (int scale : ScaleSet::reg_default().scales) {
    const std::vector<double> d = span_ms(rec, "detection.forward", 1, scale);
    out.push_back({"detection.forward_ms.s" + std::to_string(scale), "ms",
                   "lower", median(d), static_cast<long>(d.size())});
    const double macs = static_cast<double>(
        s->det->forward_macs(policy.render_h(scale), policy.render_w(scale)));
    per_scale += " s" + std::to_string(scale) + "=" +
                 number(ratio(2.0 * macs, median(d) * 1e6));
    macs2 += 2.0 * macs * static_cast<double>(d.size());
    for (double ms : d) probe_ms += ms;
    probe_n += static_cast<long>(d.size());
  }
  std::printf("%s\n", per_scale.c_str());
  out.push_back({"tensor.forward_gops", "GOP/s", "higher",
                 ratio(macs2, probe_ms * 1e6), probe_n});
  span_metric("detection.decode_ms", "detection.decode", 0);
  span_metric("detection.warp_heads_ms", "detection.warp_heads", -1);
  const double served = static_cast<double>(m.served);
  out.push_back({"detection.macs_per_frame", "count", "lower", ratio(m.macs, served), m.served});
  out.push_back({"adascale.mean_scale", "px", "lower", ratio(m.scale_sum, served), m.served});
  span_metric("adascale.regressor_ms", "adascale.regressor", 0);
  span_metric("video.flow_ms", "video.flow", -1);
  out.push_back({"video.keyframe_share", "share", "lower",
                 ratio(static_cast<double>(m.backbone_frames), served), m.served});

  long int8_steps = 0, fallback_steps = 0, steps = 0;
  Detector* master = s->runner->model_table()->master_detector();
  for (int scale : ScaleSet::reg_default().scales)
    for (const PlanStep& st :
         master->plan_for(1, policy.render_h(scale), policy.render_w(scale)).steps) {
      if (st.kernel == KernelKind::kNone) continue;
      ++steps;
      if (st.kernel == KernelKind::kInt8) ++int8_steps;
      if (st.autotuned && st.kernel == KernelKind::kGemmPacked) ++fallback_steps;
    }
  out.push_back({"tensor.int8_steps", "count", "higher", static_cast<double>(int8_steps), steps});
  out.push_back({"tensor.fp32_fallback_steps", "count", "lower",
                 static_cast<double>(fallback_steps), steps});
  span_metric("runtime.lease_wait_ms", "runtime.lease", 0);

  // Off `batched` every frame runs its own single-image forward.
  const bool batched = w.mode == Mode::kBatched;
  out.push_back({"runtime.batch.mean_batch", "frames", "higher",
                 batched ? ratio(static_cast<double>(m.batch_frames - m.singles),
                                 static_cast<double>(m.batches))
                         : 1.0,
                 batched ? m.batches : m.served});
  out.push_back({"runtime.batch.single_share", "share", "lower",
                 batched ? ratio(static_cast<double>(m.singles),
                                 static_cast<double>(m.batch_frames))
                         : 1.0,
                 batched ? m.batch_frames : m.served});

  LatencyHistogram wait;
  if (w.mode == Mode::kArrivals) {
    wait = m.queue_wait;
  } else {
    for (double ms : rr.ready_wait_ms) wait.record(ms);
  }
  // The mean, not the median: below half utilization most arrivals find
  // the worker idle, so the median wait on `arrivals` is exactly 0.
  out.push_back({"runtime.admission.queue_wait_mean_ms", "ms", "lower", wait.mean(),
                 static_cast<long>(wait.count())});
  out.push_back({"runtime.admission.queue_wait_p99_ms", "ms", "lower", wait.p99(),
                 static_cast<long>(wait.count())});
  out.push_back({"runtime.admission.service_p50_ms", "ms", "lower", m.service.p50(),
                 static_cast<long>(m.service.count())});
  out.push_back({"runtime.controller.transitions", "count", "lower",
                 ratio(static_cast<double>(m.transitions), m.ref_runs), m.ref_runs});
  out.push_back({"runtime.controller.capped_share", "share", "lower",
                 ratio(static_cast<double>(m.capped), served), m.served});

  const long reps = static_cast<long>(load_ms.size());
  out.push_back({"experiments.load_ms", "ms", "lower", median(load_ms), reps});
  out.push_back({"experiments.mixed_precision_ms", "ms", "lower", median(precision_ms), reps});
  out.push_back({"runtime.stream_table.build_ms", "ms", "lower", median(runner_ms), reps});
  out.push_back({"runtime.exec_plan.build_ms", "ms", "lower", median(plan_ms), reps});
  out.push_back({"runtime.stream_table.resident_weight_mb", "MB", "lower",
                 static_cast<double>(s->runner->model_table()->resident_weight_bytes()) /
                     (1024.0 * 1024.0),
                 1});
  const double replay_ms_per_frame = ratio(rr.frame_ms, static_cast<double>(rr.frames));
  out.push_back({"trace.overhead_pct", "%", "lower",
                 100.0 * (ratio(replay_ms_per_frame, m.serial_ms_per_frame) - 1.0),
                 rr.frames});
  return out;
}

/// Self time per layer (module prefix of the span name) per replayed frame.
void print_self_times(const SpanRecorder& rec, long frames) {
  const std::vector<double> self = rec.self_ms();
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& sp = rec.spans()[i];
    if (sp.probe || sp.frame < 0) continue;
    const std::string name = sp.name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  std::printf("self_ms_per_frame");
  for (const auto& [layer, ms] : by_layer)
    std::printf(" %s=%s", layer.c_str(),
                number(ms / static_cast<double>(std::max<long>(frames, 1))).c_str());
  std::printf("\n");
}

// -------------------------------------------------------------------- run

void print_host(const Options& o) {
  const char* threads = std::getenv("ADASCALE_THREADS");
  std::printf("host nproc=%u gemm_kernel_isa=%s qgemm_kernel_isa=%s "
              "ADASCALE_THREADS=%s seed=%llu workload=%s\n",
              std::thread::hardware_concurrency(), gemm_kernel_isa(),
              qgemm_kernel_isa(), threads != nullptr ? threads : "unset", o.seed,
              o.workload.c_str());
}

/// One line per S_reg scale: each planned step's kernel, with the measured
/// race where the autotuner chose it.
std::string kernel_choices(Server* s) {
  std::string all;
  Detector* master = s->runner->model_table()->master_detector();
  const ScalePolicy& policy = s->harness->dataset().scale_policy();
  for (int scale : ScaleSet::reg_default().scales) {
    std::string line = "kernels s" + std::to_string(scale) + ":";
    const ExecutionPlan& plan =
        master->plan_for(1, policy.render_h(scale), policy.render_w(scale));
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
      const PlanStep& st = plan.steps[i];
      if (st.kernel == KernelKind::kNone) continue;
      line += " " + std::to_string(i) + ":" + st.layer + "=" +
              kernel_kind_name(st.kernel);
      if (st.autotuned)
        line += "(int8 " + number(st.tuned_int8_ns) + " ns, fp32 " +
                number(st.tuned_fp32_ns) + " ns)";
    }
    all += line + "\n";
  }
  return all;
}

int prepare(const Options& o) {
  std::unique_ptr<Harness> h = vid_harness(o.cache_dir);
  h->detector(ScaleSet::train_default());
  h->regressor(ScaleSet::train_default(), h->default_regressor_config());
  std::fprintf(stderr, "servebench: models ready in %s\n", o.cache_dir.c_str());
  return 0;
}

int run(const Options& o) {
  const Workload& w = find_workload(o.workload);
  print_host(o);
  SpanRecorder rec;
  SpanRecorder* tracing = o.trace ? &rec : nullptr;

  std::vector<double> setup_ms, load_ms, precision_ms, runner_ms, plan_ms;
  std::unique_ptr<Server> server;
  Timer setup_phase;
  while (setup_ms.size() < static_cast<std::size_t>(kSetupMinReps) ||
         (setup_ms.size() < static_cast<std::size_t>(kSetupMaxReps) &&
          setup_phase.elapsed_s() < kSetupMinSeconds)) {
    server.reset();  // one serving process holds one set of models
    server = set_up(w, o.cache_dir, tracing);
    setup_ms.push_back(server->total_ms);
    load_ms.push_back(server->load_ms);
    precision_ms.push_back(server->precision_ms);
    runner_ms.push_back(server->runner_ms);
    plan_ms.push_back(server->plan_ms);
  }
  const double setup_phase_s = setup_phase.elapsed_s();
  std::printf("%s", kernel_choices(server.get()).c_str());

  const Dataset inputs = server->harness->dataset().sibling(0, w.snippets, kInputSeed);
  std::vector<const Snippet*> jobs;
  for (const Snippet& sn : inputs.val_snippets()) jobs.push_back(&sn);
  Rng order(o.seed);
  order.shuffle(jobs);
  const std::vector<std::vector<FrameRef>> by_stream = frames_by_stream(jobs, w.streams);

  std::vector<Check> checks{{"model_cache", true, "models loaded from the prepared cache"}};
  Measured m;
  if (w.mode == Mode::kArrivals)
    serve_arrivals(server.get(), jobs, by_stream, o.seconds, &checks, &m);
  else
    serve_drain(server.get(), w, jobs, by_stream, o.seconds, &checks, &m);

  std::vector<Metric> metrics;
  if (o.trace) {
    ReplayResult rr;
    if (!m.replay_order.empty()) {
      if (w.mode != Mode::kArrivals) {
        // Untraced one-worker baseline for trace.overhead_pct, warm (the
        // reference pass was the warm-up).
        Timer t;
        server->runner->run_serial(jobs);
        m.serial_ms_per_frame =
            t.elapsed_ms() / static_cast<double>(m.replay_order.size());
      }
      rr = replay(server.get(), w, m.replay_order, &rec);
      probe_layers(server.get(), w, m.replay_order, &rec);
    }
    checks.push_back({"replay_reproduces", rr.reproduced && rr.frames > 0,
                      rr.reproduced ? std::to_string(rr.frames) +
                                          " served frames reproduced byte for byte"
                                    : rr.mismatch});
    metrics = per_layer_metrics(server.get(), w, m, load_ms, precision_ms,
                                runner_ms, plan_ms, rec, rr);
    print_self_times(rec, rr.frames);
    if (!o.trace_out.empty()) {
      const std::string kernels = kernel_choices(server.get());
      const bool wrote = rec.write_chrome_json(
          o.trace_out, {{"workload", w.name},
                        {"seed", std::to_string(o.seed)},
                        {"gemm_kernel_isa", gemm_kernel_isa()},
                        {"qgemm_kernel_isa", qgemm_kernel_isa()},
                        {"kernels", kernels}});
      checks.push_back({"trace_written", wrote, o.trace_out});
    }
  } else {
    const long passes = static_cast<long>(m.fps.size());
    metrics.push_back({"frames_per_s", "frames/s", "higher", median(m.fps), passes});
    metrics.push_back({"map", "%", "higher", m.map, m.map_frames});
    metrics.push_back({"latency_p50_ms", "ms", "lower", m.latency.p50(),
                       static_cast<long>(m.latency.count())});
    metrics.push_back({"latency_p99_ms", "ms", "lower", m.latency.p99(),
                       static_cast<long>(m.latency.count())});
    metrics.push_back({"setup_s", "s", "lower", median(setup_ms) / 1000.0,
                       static_cast<long>(setup_ms.size())});
    metrics.push_back({"peak_rss_mb", "MB", "lower", peak_rss_mb(), 1});
  }

  for (const Metric& mt : metrics) print_metric(mt);
  std::printf("report setup_ms per set-up (%.1f s for all):", setup_phase_s);
  for (double ms : setup_ms) std::printf(" %s", number(ms).c_str());
  std::printf("\n");
  std::printf("report frames_per_s per timed call:");
  for (double f : m.fps) std::printf(" %s", number(f).c_str());
  std::printf("\n");
  std::printf("report latency percentiles: p90 %s ms, p95 %s ms, p99 %s ms, max %s ms (n=%zu)\n",
              number(m.latency.quantile(0.90)).c_str(), number(m.latency.p95()).c_str(),
              number(m.latency.p99()).c_str(), number(m.latency.max()).c_str(),
              m.latency.count());
  const double offered = static_cast<double>(std::max<long>(m.attempted, 1));
  std::printf("report drop_rate = %s share (lower is better, n=%ld offered)\n",
              number(static_cast<double>(m.failed) / offered).c_str(), m.attempted);
  if (w.mode == Mode::kArrivals) {
    std::printf("report deadline_miss_rate = %s share at %s fps (lower is better, "
                "n=%ld offered)\n",
                number(static_cast<double>(m.missed_ref) /
                       static_cast<double>(std::max<long>(m.offered_ref, 1)))
                    .c_str(),
                number(kRefRateFps).c_str(), m.offered_ref);
    std::printf("report slo_rate_fps = %s frames/s (higher is better; p99 <= %s ms "
                "and no drops; ladder",
                number(m.slo_rate_fps).c_str(), number(kDeadlineMs).c_str());
    for (double r : kRateLadderFps) std::printf(" %s", number(r).c_str());
    std::printf(")\n");
  }
  bool correct = true;
  for (const Check& c : checks) {
    std::printf("check %s: %s (%s)\n", c.name.c_str(), c.pass ? "PASS" : "FAIL",
                c.detail.c_str());
    correct = correct && c.pass;
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", m.attempted, m.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const servebench::Options o = servebench::parse(argc, argv);
  return o.prepare ? servebench::prepare(o) : servebench::run(o);
}
