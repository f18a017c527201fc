// Stream-state-table serving: the event-driven table runner must be a pure
// execution-strategy change — per-stream outputs byte-identical to serial,
// threaded, batched and (no-drop) timed execution, under every
// backend default, heterogeneous per-stream policies and DFF — while the
// shared-weights split keeps ONE resident weight copy no matter how many
// streams or contexts exist.  A seeded randomized-replay layer locks down
// determinism of the virtual-time runner and of the table across worker
// counts and repeated runs.
#include "runtime/stream_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "nn/layer.h"
#include "runtime/admission.h"
#include "runtime/multi_stream.h"
#include "runtime/overload_controller.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "util/clock.h"
#include "util/rng.h"

namespace ada {
namespace {

/// Restores the process-wide default backend on scope exit (R2 seam:
/// tests may flip the global, but must save/restore).
struct BackendGuard {
  GemmBackend saved = gemm_backend();
  ~BackendGuard() { set_gemm_backend(saved); }
};

/// Exact byte serialization of everything bit-stability promises: scales,
/// regressed t, and every detection's class/score/box.  %a prints floats
/// as hex — two serializations compare equal iff the outputs are
/// bit-identical, which makes mismatch diffs readable.
void append_frame(std::string* out, const AdaFrameOutput& f) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "s%d n%d t%a k%d|", f.scale_used,
                f.next_scale, static_cast<double>(f.regressed_t),
                f.dff_key ? 1 : 0);
  *out += buf;
  for (const Detection& d : f.detections.detections) {
    std::snprintf(buf, sizeof(buf), "c%d %a (%a %a %a %a);", d.class_id,
                  static_cast<double>(d.score), static_cast<double>(d.box.x1),
                  static_cast<double>(d.box.y1), static_cast<double>(d.box.x2),
                  static_cast<double>(d.box.y2));
    *out += buf;
  }
  *out += "\n";
}

std::string result_bytes(const MultiStreamResult& r) {
  std::string out;
  for (const StreamOutput& s : r.streams) {
    out += "stream " + std::to_string(s.stream_id) + "\n";
    for (const AdaFrameOutput& f : s.frames) append_frame(&out, f);
  }
  return out;
}

/// Per-stream outputs of a timed run, in per-stream seq order (completion
/// order is global; within one stream it is already chronological).
std::string timed_inference_bytes(const TimedRunResult& r, int num_streams) {
  std::string out;
  for (int s = 0; s < num_streams; ++s) {
    out += "stream " + std::to_string(s) + "\n";
    for (const TimedFrameRecord& f : r.frames) {
      if (f.stream != s || f.dropped) continue;
      append_frame(&out, f.output);
    }
  }
  return out;
}

/// Full byte serialization of a timed run's observable behavior (the
/// replay-fuzz contract): every record's timing, drop accounting and level,
/// plus the aggregate counters.
std::string timed_replay_bytes(const TimedRunResult& r) {
  std::string out;
  char buf[256];
  for (const TimedFrameRecord& f : r.frames) {
    std::snprintf(buf, sizeof(buf), "%d.%ld a%a s%a f%a d%d r%d m%d u%d l%d\n",
                  f.stream, f.seq, f.arrival_ms, f.start_ms, f.finish_ms,
                  f.dropped ? 1 : 0, static_cast<int>(f.drop_reason),
                  f.deadline_met ? 1 : 0, f.scale_used,
                  static_cast<int>(f.level));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "off%ld srv%ld dq%ld dd%ld v%ld mk%a fl%d\n", r.offered,
                r.served, r.dropped_queue_full, r.dropped_deadline,
                r.deadline_violations, r.makespan_ms,
                static_cast<int>(r.final_level));
  out += buf;
  return out;
}

class StreamTableTest : public ::testing::Test {
 protected:
  StreamTableTest()
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

  std::vector<const Snippet*> val_jobs(std::size_t limit = ~0u) const {
    std::vector<const Snippet*> jobs;
    for (const Snippet& s : dataset_.val_snippets()) {
      if (jobs.size() >= limit) break;
      jobs.push_back(&s);
    }
    return jobs;
  }

  std::unique_ptr<MultiStreamRunner> make_runner(int streams,
                                                 int contexts = 0) {
    return std::make_unique<MultiStreamRunner>(
        detector_.get(), regressor_.get(), &renderer_,
        dataset_.scale_policy(), ScaleSet::reg_default(), streams,
        /*init_scale=*/600, /*snap_scales=*/false, contexts);
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

// ---------------------------------------------------------------------------
// Equivalence layer: one semantics, five execution strategies.
// ---------------------------------------------------------------------------

TEST_F(StreamTableTest, TableMatchesSerialThreadedAndBatchedBitForBit) {
  const auto jobs = val_jobs();
  auto serial = make_runner(3);
  const std::string ref = result_bytes(serial->run_serial(jobs));

  StreamTableConfig tcfg;
  tcfg.workers = 3;
  auto table = make_runner(3);
  EXPECT_EQ(result_bytes(table->run_table(jobs, tcfg)), ref);

  auto threaded = make_runner(3);
  EXPECT_EQ(result_bytes(threaded->run(jobs)), ref);

  auto batched = make_runner(3);
  BatchSchedulerConfig bcfg;
  bcfg.max_batch = 3;
  MultiStreamResult bat = batched->run_batched(jobs, bcfg);
  EXPECT_EQ(result_bytes(bat), ref);
  EXPECT_EQ(bat.batch_stats.frames, bat.total_frames);
}

TEST_F(StreamTableTest, WorkersCoveringThePoolRunKernelsInline) {
  // More busy table workers than kernel-pool threads: every frame's kernels
  // run on its worker's own thread, so no helper task reaches the pool —
  // and the bytes are still the serial runner's, whose one worker fans out.
  // Snippets repeat so that every worker has a stream of its own, and all
  // streams hold the same number of frames, so the drain has no tail.
  ThreadPool* pool = global_pool();
  const int workers = pool->num_threads() + 1;
  const auto snippets = val_jobs();
  std::vector<const Snippet*> jobs;
  for (int j = 0; j < workers; ++j)
    jobs.push_back(snippets[static_cast<std::size_t>(j) % snippets.size()]);
  auto serial = make_runner(workers);
  const std::uint64_t before_serial = pool->helpers_submitted();
  const std::string ref = result_bytes(serial->run_serial(jobs));
  if (pool->num_threads() > 0) {
    EXPECT_GT(pool->helpers_submitted(), before_serial);
  }

  StreamTableConfig tcfg;
  tcfg.workers = workers;
  auto table = make_runner(workers);
  const std::uint64_t before_table = pool->helpers_submitted();
  EXPECT_EQ(result_bytes(table->run_table(jobs, tcfg)), ref);
  EXPECT_EQ(pool->helpers_submitted(), before_table);

  if (pool->num_threads() == 0) return;

  // run_batched over the same streams: every first frame renders at the
  // init scale, so they share one batch, and a batch keeps the lone
  // frame's inline rule.  run_batched sizes its workers to the cores, so
  // they cover the pool only when the host has a core per stream.
  if (static_cast<int>(std::thread::hardware_concurrency()) >= workers) {
    auto batched = make_runner(workers);
    const std::uint64_t before_batched = pool->helpers_submitted();
    const MultiStreamResult bat = batched->run_batched(jobs);
    EXPECT_EQ(result_bytes(bat), ref);
    EXPECT_GE(bat.batch_stats.batches, 1);
    EXPECT_EQ(pool->helpers_submitted(), before_batched);
  }

  // One stream fewer: one worker never gets a frame, the busy ones no
  // longer cover the pool, and the kernels fan out again.
  const std::vector<const Snippet*> fewer_jobs(jobs.begin(), jobs.end() - 1);
  auto fewer_serial = make_runner(workers - 1);
  const std::string fewer_ref =
      result_bytes(fewer_serial->run_serial(fewer_jobs));
  auto fewer = make_runner(workers - 1);
  const std::uint64_t before_fewer = pool->helpers_submitted();
  EXPECT_EQ(result_bytes(fewer->run_table(fewer_jobs, tcfg)), fewer_ref);
  EXPECT_GT(pool->helpers_submitted(), before_fewer);

  // An uneven drain: stream 0 gets a second snippet.  Its first snippet
  // runs inline beside the other streams; once they hold no more frames
  // its second snippet is the tail and fans out onto the freed cores.
  jobs.push_back(snippets[0]);
  auto uneven_serial = make_runner(workers);
  const std::uint64_t before_uneven_serial = pool->helpers_submitted();
  const std::string uneven_ref = result_bytes(uneven_serial->run_serial(jobs));
  const std::uint64_t serial_helpers =
      pool->helpers_submitted() - before_uneven_serial;
  auto uneven = make_runner(workers);
  const std::uint64_t before_uneven = pool->helpers_submitted();
  EXPECT_EQ(result_bytes(uneven->run_table(jobs, tcfg)), uneven_ref);
  const std::uint64_t tail_helpers = pool->helpers_submitted() - before_uneven;
  EXPECT_GT(tail_helpers, 0u);
  EXPECT_LT(tail_helpers, serial_helpers);
}

TEST_F(StreamTableTest, EquivalenceHoldsUnderEveryBackendDefault) {
  BackendGuard guard;
  const auto jobs = val_jobs(2);
  for (GemmBackend be :
       {GemmBackend::kPacked, GemmBackend::kReference, GemmBackend::kInt8}) {
    set_gemm_backend(be);
    auto serial = make_runner(2);
    const std::string ref = result_bytes(serial->run_serial(jobs));
    StreamTableConfig tcfg;
    tcfg.workers = 2;
    auto table = make_runner(2);
    EXPECT_EQ(result_bytes(table->run_table(jobs, tcfg)), ref)
        << "backend " << static_cast<int>(be);
  }
}

TEST_F(StreamTableTest, HeterogeneousStreamPoliciesMatchPerPolicySerial) {
  // Stream 0 serves int8/fp32, stream 1 reference/reference: each must
  // produce exactly the bits of its own single-policy serial run — pools
  // are per policy pair, so neither stream can leak kernels to the other.
  const auto jobs = val_jobs();
  auto mixed = make_runner(2);
  mixed->set_stream_policy(0, ExecutionPolicy::int8(),
                           ExecutionPolicy::fp32());
  mixed->set_stream_policy(1, ExecutionPolicy::reference(),
                           ExecutionPolicy::reference());
  StreamTableConfig tcfg;
  tcfg.workers = 2;
  const MultiStreamResult par = mixed->run_table(jobs, tcfg);
  EXPECT_EQ(mixed->model_table()->pool_count(), 3u);  // default + 2 pinned
  // run_batched too: buckets key on the stream's pool, so frames of the
  // two policies never share a forward.
  BatchSchedulerConfig bcfg;
  bcfg.max_batch = 2;
  const MultiStreamResult bat = mixed->run_batched(jobs, bcfg);

  const ExecutionPolicy det_pol[2] = {ExecutionPolicy::int8(),
                                      ExecutionPolicy::reference()};
  const ExecutionPolicy reg_pol[2] = {ExecutionPolicy::fp32(),
                                      ExecutionPolicy::reference()};
  for (int s = 0; s < 2; ++s) {
    std::vector<const Snippet*> share;
    for (std::size_t j = static_cast<std::size_t>(s); j < jobs.size(); j += 2)
      share.push_back(jobs[j]);
    auto single = make_runner(1);
    single->set_stream_policy(0, det_pol[s], reg_pol[s]);
    const MultiStreamResult ref = single->run_serial(share);
    std::string want;
    for (const AdaFrameOutput& f : ref.streams[0].frames)
      append_frame(&want, f);
    for (const MultiStreamResult* run : {&par, &bat}) {
      std::string got;
      for (const AdaFrameOutput& f :
           run->streams[static_cast<std::size_t>(s)].frames)
        append_frame(&got, f);
      EXPECT_EQ(got, want) << "stream " << s << (run == &bat ? " batched" : "");
    }
  }
}

TEST_F(StreamTableTest, DffTableMatchesSerialAndBatched) {
  DffServingConfig dff;
  dff.policy = DffServingConfig::Keyframe::kFixedInterval;
  dff.key_interval = 2;
  const auto jobs = val_jobs();

  auto serial = make_runner(3);
  serial->set_dff(dff);
  const std::string ref = result_bytes(serial->run_serial(jobs));

  auto table = make_runner(3);
  table->set_dff(dff);
  StreamTableConfig tcfg;
  tcfg.workers = 2;
  EXPECT_EQ(result_bytes(table->run_table(jobs, tcfg)), ref);

  auto batched = make_runner(3);
  batched->set_dff(dff);
  EXPECT_EQ(result_bytes(batched->run_batched(jobs)), ref);
}

TEST_F(StreamTableTest, TimedRunMatchesSerialOnNoDropSchedule) {
  // run_timed with admission knobs that cannot drop (capacity covers the
  // whole backlog, effectively-infinite deadline, no controller) serves
  // each stream's frames in order — so its per-frame inference output must
  // be the same bits as the serial runner's.
  const auto jobs = val_jobs();
  const int ns = 3;
  auto serial = make_runner(ns);
  const std::string ref = result_bytes(serial->run_serial(jobs));

  auto timed = make_runner(ns);
  const std::vector<StreamSchedule> schedules =
      schedules_from_jobs(jobs, ns, /*frame_interval_ms=*/1.0);
  TimedRunConfig cfg;
  cfg.admission.capacity = 4096;
  cfg.admission.deadline_ms = 1e12;
  ManualClock clock;
  const TimedRunResult r = timed->run_timed(schedules, cfg, &clock);
  EXPECT_EQ(r.offered, r.served);
  EXPECT_EQ(r.dropped_queue_full + r.dropped_deadline, 0);
  EXPECT_EQ(timed_inference_bytes(r, ns), ref);
}

// ---------------------------------------------------------------------------
// Shared-weights aliasing: one resident copy, immutable while serving.
// ---------------------------------------------------------------------------

TEST_F(StreamTableTest, SharedClonesAliasParamsDeepClonesDoNot) {
  auto shared = clone_detector_shared(detector_.get());
  auto deep = clone_detector(detector_.get());
  const std::vector<Param*> src = detector_->parameters();
  const std::vector<Param*> sh = shared->parameters();
  const std::vector<Param*> dp = deep->parameters();
  ASSERT_EQ(src.size(), sh.size());
  ASSERT_EQ(src.size(), dp.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(src[i], sh[i]) << "param " << i << " not aliased";
    EXPECT_NE(src[i], dp[i]) << "param " << i << " unexpectedly aliased";
  }
  // The plan cache is shared too: a plan built via the sharer is visible to
  // the source (and vice versa).
  const std::size_t before = detector_->cached_plan_count();
  const Scene& scene = dataset_.val_snippets()[0].frames[0];
  const Tensor img =
      renderer_.render_at_scale(scene, 240, dataset_.scale_policy());
  shared->detect(img);
  EXPECT_GT(detector_->cached_plan_count(), before);

  auto shared_reg = clone_regressor_shared(regressor_.get());
  const std::vector<Param*> rsrc = regressor_->parameters();
  const std::vector<Param*> rsh = shared_reg->parameters();
  ASSERT_EQ(rsrc.size(), rsh.size());
  for (std::size_t i = 0; i < rsrc.size(); ++i) EXPECT_EQ(rsrc[i], rsh[i]);
}

TEST_F(StreamTableTest, EveryPoolContextAliasesTheMasterCopy) {
  ModelTable table(detector_.get(), regressor_.get(), /*contexts=*/3);
  ContextPool* a = table.pool_for(ExecutionPolicy::env_default(),
                                  ExecutionPolicy::env_default());
  ContextPool* b =
      table.pool_for(ExecutionPolicy::int8(), ExecutionPolicy::fp32());
  EXPECT_NE(a, b);
  EXPECT_EQ(table.pool_count(), 2u);
  // Same pair twice -> same pool, not a new one.
  EXPECT_EQ(table.pool_for(ExecutionPolicy::int8(), ExecutionPolicy::fp32()),
            b);

  const std::vector<Param*> det_master = table.master_detector()->parameters();
  const std::vector<Param*> reg_master =
      table.master_regressor()->parameters();
  for (ContextPool* pool : {a, b}) {
    for (int i = 0; i < pool->size(); ++i) {
      EXPECT_EQ(pool->detector_at(i)->parameters(), det_master);
      EXPECT_EQ(pool->regressor_at(i)->parameters(), reg_master);
    }
  }
  // Leases hand out distinct contexts until the pool is exhausted.
  ModelPool::Lease l0 = a->acquire();
  ModelPool::Lease l1 = a->acquire();
  ModelPool::Lease l2 = a->acquire();
  std::set<Detector*> distinct{l0.detector, l1.detector, l2.detector};
  EXPECT_EQ(distinct.size(), 3u);
  a->release(l0);
  a->release(l1);
  a->release(l2);
}

TEST_F(StreamTableTest, WeightsStayByteIdenticalAcrossServing) {
  auto runner = make_runner(3);
  ModelTable* table = runner->model_table();
  const std::vector<float> det_before =
      flatten_params(table->master_detector()->parameters());
  const std::vector<float> reg_before =
      flatten_params(table->master_regressor()->parameters());

  const auto jobs = val_jobs();
  StreamTableConfig tcfg;
  tcfg.workers = 3;
  runner->run_table(jobs, tcfg);

  EXPECT_EQ(flatten_params(table->master_detector()->parameters()),
            det_before);
  EXPECT_EQ(flatten_params(table->master_regressor()->parameters()),
            reg_before);
}

TEST_F(StreamTableTest, ThousandStreamTableHoldsOneWeightCopy) {
  // 1000 streams, 2 contexts per policy pair: resident parameter storage
  // must be EXACTLY one model copy — the per-stream cost is the
  // StreamContext, not weights.  (1000 dedicated clones would be 1000x.)
  auto big = make_runner(1000, /*contexts=*/2);
  ModelTable* table = big->model_table();
  const std::size_t resident = table->resident_weight_bytes();
  EXPECT_EQ(resident, table->cloned_weight_bytes(1));
  EXPECT_EQ(table->cloned_weight_bytes(1000), resident * 1000);

  // Serving smoke through the giant table (jobs land on the first streams;
  // the other ~996 entries sit idle, costing only their state).
  const auto jobs = val_jobs(2);
  StreamTableConfig tcfg;
  tcfg.workers = 4;
  const MultiStreamResult got = big->run_table(jobs, tcfg);
  EXPECT_EQ(table->resident_weight_bytes(), resident);  // still one copy

  auto small = make_runner(1000, /*contexts=*/2);
  EXPECT_EQ(result_bytes(small->run_serial(jobs)), result_bytes(got));
}

TEST_F(StreamTableTest, ThousandStreamTimedSmokeServesEveryFrame) {
  // Queueing-only (service-model) timed run over 1000 streams: the event
  // loop must admit, serve and account every offered frame with one weight
  // copy resident.
  const int ns = 1000;
  auto runner = make_runner(ns, /*contexts=*/1);
  const std::vector<Snippet>& snips = dataset_.val_snippets();
  std::vector<StreamSchedule> schedules(ns);
  for (int s = 0; s < ns; ++s) {
    const Snippet& snip = snips[static_cast<std::size_t>(s) % snips.size()];
    double t = static_cast<double>(s) * 0.25;
    bool first = true;
    for (std::size_t f = 0; f < snip.frames.size() && f < 3; ++f) {
      schedules[static_cast<std::size_t>(s)].push_back(
          {t, &snip.frames[f], first});
      first = false;
      t += 40.0;
    }
  }
  TimedRunConfig cfg;
  cfg.admission.capacity = 8;
  cfg.admission.deadline_ms = 1e12;
  cfg.run_inference = false;
  cfg.service_model = [](int, long, int, DegradeLevel) { return 0.01; };
  ManualClock clock;
  const TimedRunResult r = runner->run_timed(schedules, cfg, &clock);
  EXPECT_EQ(r.offered, static_cast<long>(ns) * 3);
  EXPECT_EQ(r.served, r.offered);
  EXPECT_EQ(r.dropped_queue_full + r.dropped_deadline, 0);
  EXPECT_EQ(runner->model_table()->resident_weight_bytes(),
            runner->model_table()->cloned_weight_bytes(1));
}

// ---------------------------------------------------------------------------
// Randomized replay: seeded scenarios, byte-for-byte determinism.
// ---------------------------------------------------------------------------

TEST_F(StreamTableTest, ReplayFuzzTimedRunsAreByteDeterministic) {
  // ~50 seeded scenarios over the virtual-time runner: random stream
  // counts, Poisson/bursty/idle (churn) arrival mixes, random admission
  // knobs and injected faults.  Each scenario runs TWICE; the full replay
  // serialization (timings, drops, accounting) must match byte for byte.
  const auto jobs = val_jobs();
  for (int scenario = 0; scenario < 50; ++scenario) {
    Rng rng(1000 + static_cast<std::uint64_t>(scenario));
    const int ns = rng.uniform_int(1, 5);
    std::vector<StreamSchedule> schedules;
    schedules.reserve(static_cast<std::size_t>(ns));
    for (int s = 0; s < ns; ++s) {
      const float kind = rng.uniform();
      Rng srng = rng.fork();
      if (kind < 0.2f) {
        schedules.emplace_back();  // stream attached but idle (churn)
      } else if (kind < 0.6f) {
        schedules.push_back(poisson_schedule(
            jobs, /*rate_hz=*/rng.uniform(20.0f, 200.0f),
            /*start_ms=*/rng.uniform(0.0f, 50.0f), &srng));
      } else {
        schedules.push_back(bursty_schedule(
            jobs, /*base=*/rng.uniform(10.0f, 60.0f),
            /*burst=*/rng.uniform(100.0f, 400.0f),
            /*period=*/rng.uniform(100.0f, 400.0f),
            /*len=*/rng.uniform(10.0f, 90.0f),
            /*start_ms=*/rng.uniform(0.0f, 50.0f), &srng));
      }
    }
    TimedRunConfig cfg;
    cfg.admission.capacity = rng.uniform_int(1, 8);
    cfg.admission.deadline_ms = rng.uniform(5.0f, 100.0f);
    cfg.run_inference = false;
    const double base_ms = rng.uniform(1.0f, 15.0f);
    cfg.service_model = [base_ms](int stream, long seq, int scale,
                                  DegradeLevel) {
      return base_ms + 0.1 * static_cast<double>(stream) +
             0.01 * static_cast<double>(seq % 7) +
             1e-6 * static_cast<double>(scale) * static_cast<double>(scale);
    };
    if (rng.chance(0.3f))
      cfg.faults = FaultInjection::global_spike(1, 3, rng.uniform(20.f, 80.f));
    else if (rng.chance(0.3f))
      cfg.faults =
          FaultInjection::stalled_stream(0, 2, rng.uniform(50.f, 150.f));

    auto runner = make_runner(ns, /*contexts=*/1);
    ManualClock c1;
    const std::string run1 = timed_replay_bytes(
        runner->run_timed(schedules, cfg, &c1));
    ManualClock c2;
    const std::string run2 = timed_replay_bytes(
        runner->run_timed(schedules, cfg, &c2));
    EXPECT_EQ(run1, run2) << "scenario " << scenario << " not replayable";
    EXPECT_FALSE(run1.empty());
  }
}

TEST_F(StreamTableTest, TimedRunBytesMatchTheirRecordedHash) {
  // Repeat runs agreeing (above) cannot show that the bytes moved between
  // commits; this hash can.  Three service-model scenarios cover queue-full
  // drops and an idle stream, a fault spike, and a controller that climbs
  // every rung to kShed and back.  Schedules come from schedules_from_jobs
  // at a positive interval plus hand-written bursts, and service is
  // polynomial in scale, so no libm call feeds the hash.
  const auto jobs = val_jobs();
  auto modeled = [](double base_ms) {
    TimedRunConfig cfg;
    cfg.run_inference = false;
    cfg.service_model = [base_ms](int stream, long seq, int scale,
                                  DegradeLevel) {
      const double f = static_cast<double>(scale) / 600.0;
      return base_ms * f * f + 0.25 * static_cast<double>(stream) +
             0.125 * static_cast<double>(seq % 3);
    };
    return cfg;
  };
  auto burst = [&](int frames, double at_ms) {
    StreamSchedule s;
    for (int f = 0; f < frames; ++f)
      s.push_back({at_ms, &jobs[0]->frames[static_cast<std::size_t>(f) %
                                           jobs[0]->frames.size()],
                   f == 0});
    return s;
  };
  std::string bytes;

  // Queue-full drops beside an idle stream: stream 1's burst overflows a
  // 3-deep queue while stream 2 never offers a frame.
  {
    std::vector<StreamSchedule> schedules{
        schedules_from_jobs(jobs, 1, /*frame_interval_ms=*/4.0)[0],
        burst(10, 10.0), StreamSchedule{}};
    TimedRunConfig cfg = modeled(6.0);
    cfg.admission.capacity = 3;
    cfg.admission.deadline_ms = 40.0;
    auto runner = make_runner(3, /*contexts=*/1);
    ManualClock clock;
    const TimedRunResult r = runner->run_timed(schedules, cfg, &clock);
    EXPECT_GT(r.dropped_queue_full, 0);
    EXPECT_EQ(r.stream_stats[2].offered, 0);
    bytes += timed_replay_bytes(r);
  }
  // A fault spike: frames 3..5 of every stream stall 35 ms and miss their
  // deadline.
  {
    TimedRunConfig cfg = modeled(7.0);
    cfg.admission.capacity = 4;
    cfg.admission.deadline_ms = 30.0;
    cfg.faults = FaultInjection::global_spike(3, 5, 35.0);
    auto runner = make_runner(2, /*contexts=*/1);
    ManualClock clock;
    const TimedRunResult r = runner->run_timed(
        schedules_from_jobs(jobs, 2, /*frame_interval_ms=*/10.0), cfg,
        &clock);
    EXPECT_GT(r.deadline_violations, 0);
    bytes += timed_replay_bytes(r);
  }
  // The whole ladder: a burst walks the controller up through the scale
  // cap and the policy switch to shedding, and stream 0's steady tail
  // brings it back to normal.
  {
    std::vector<const Snippet*> tail;
    for (int rep = 0; rep < 3; ++rep)
      tail.insert(tail.end(), jobs.begin(), jobs.end());
    std::vector<StreamSchedule> schedules{
        schedules_from_jobs(tail, 1, /*frame_interval_ms=*/25.0)[0],
        burst(16, 50.0)};
    TimedRunConfig cfg = modeled(12.0);
    cfg.admission.capacity = 16;
    cfg.admission.deadline_ms = 60.0;
    auto runner = make_runner(2, /*contexts=*/1);
    ManualClock clock;
    OverloadControllerConfig ccfg;
    ccfg.queue_high = 3;
    ccfg.calm_ticks = 3;
    ccfg.enable_policy_switch = true;
    OverloadController controller(ccfg, ScaleSet::reg_default(), &clock);
    const TimedRunResult r =
        runner->run_timed(schedules, cfg, &clock, &controller);
    EXPECT_GT(r.dropped_deadline, 0);
    DegradeLevel worst = DegradeLevel::kNormal;
    for (const DegradeEvent& e : r.timeline) worst = std::max(worst, e.to);
    EXPECT_EQ(worst, DegradeLevel::kShed);
    EXPECT_EQ(r.final_level, DegradeLevel::kNormal);
    bytes += timed_replay_bytes(r);
  }

  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a, 64-bit
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  EXPECT_EQ(hash, 0x4d0d5951c401519cULL) << std::hex << "hash 0x" << hash;
}

TEST_F(StreamTableTest, ReplayFuzzTableIsDeterministicAcrossWorkerCounts) {
  // The table's worker count is pure execution strategy: for seeded random
  // job subsets and stream counts, 1, 2 and 3 workers (and a repeat run)
  // must produce identical bytes.
  const auto all = val_jobs();
  for (int scenario = 0; scenario < 4; ++scenario) {
    Rng rng(7000 + static_cast<std::uint64_t>(scenario));
    const int ns = rng.uniform_int(1, 3);
    std::vector<const Snippet*> jobs;
    for (const Snippet* j : all)
      if (rng.chance(0.7f)) jobs.push_back(j);
    if (jobs.empty()) jobs.push_back(all[0]);

    std::string ref;
    for (int workers = 1; workers <= 3; ++workers) {
      StreamTableConfig tcfg;
      tcfg.workers = workers;
      auto runner = make_runner(ns);
      const std::string got = result_bytes(runner->run_table(jobs, tcfg));
      if (workers == 1) {
        ref = got;
        // Same runner, second pass: state fully resets per snippet.
        EXPECT_EQ(result_bytes(runner->run_table(jobs, tcfg)), ref)
            << "scenario " << scenario << " not repeatable";
      } else {
        EXPECT_EQ(got, ref) << "scenario " << scenario << " workers "
                            << workers;
      }
    }
  }
}

}  // namespace
}  // namespace ada
