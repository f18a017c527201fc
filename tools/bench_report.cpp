// bench_report — machine-readable kernel/perf trajectory for the repo.
//
// Emits BENCH_kernels.json (schema v9): per-conv-shape GFLOP/s and ns/call
// for all three GEMM backends (packed / reference / int8), end-to-end
// detector forward latency / fps at each nominal scale, multi-stream
// serving throughput — unbatched vs cross-stream batching (run_batched) — the
// INT8 accuracy cost: fixed-600 mAP of the trained detector under fp32
// vs the quantized path (the `quantized` section; uses the model cache, so
// the first run trains for a few minutes and later runs load instantly) —
// and, since v5, the `dff` section: per-stream serving FPS with and without
// DFF temporal reuse (keyframe share, warp-frame vs full-forward cost, and
// the mAP delta the DFF acceptance bar reads).
// Since v6 the `serving_slo` section records overload behavior: bursty
// arrivals (auto-calibrated against measured service cost) pushed through
// the virtual-time serving loop twice — an uncontrolled baseline vs the
// graceful-degradation controller — with p50/p95/p99 latency, drop
// accounting, deadline compliance, the degradation timeline, and the mAP
// cost of degrading.
// Since v7 the `stream_table` section records serving density: a
// 1000-stream stream-state table over ONE shared weight copy — resident
// parameter bytes vs the 1000-dedicated-clones baseline, plus a
// deterministic service-model-only timed pass proving every stream is
// actually served at that density.
// v9 dropped v8's `kernel_autotune` section: plans no longer time int8
// against fp32, since a quantized layer under the int8 policy always plans
// int8 (runtime/exec_plan.h).
// Since v4 every section records the execution policy its rows ran under
// (per-column for multi-backend sections), and backends are selected with
// pinned per-model ExecutionPolicy values / explicit kernel arguments —
// the process-wide ADASCALE_GEMM default is read once for the header and
// never mutated.  Future PRs diff this file to see whether the hot path
// moved; docs/BENCHMARKS.md documents the schema.
//
// Usage: bench_report [output.json]   (default: BENCH_kernels.json)
//
// Deliberately not a google-benchmark binary so it builds and runs even
// where libbenchmark is absent (it is the CI Release smoke test).  Unlike
// bench_multi_stream (which pins the kernel pool to one thread to isolate
// stream scaling), the multi_stream section here runs with the default pool
// so batched forwards can use the whole machine — this is the number the
// batching acceptance bar reads.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "detection/detector.h"
#include "experiments/harness.h"
#include "runtime/exec_policy.h"
#include "runtime/multi_stream.h"
#include "tensor/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "util/json.h"
#include "util/timer.h"

namespace {

using namespace ada;

/// Median-of-reps wall time for fn(), in nanoseconds.
template <typename Fn>
double time_ns(Fn&& fn, int reps) {
  fn();  // warm caches / scratch arena
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    samples.push_back(t.elapsed_ms() * 1e6);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct ConvCase {
  std::string name;
  ConvSpec spec;
  int h, w;
};

void emit_conv_cases(JsonWriter* jw, const std::vector<ConvCase>& cases) {
  // v4: the policy each column ran under (pinned per call above).
  jw->key("convs_policies").value("packed|reference|int8 per column");
  jw->key("convs");
  jw->begin_array();
  for (const ConvCase& c : cases) {
    Tensor x(1, c.spec.in_channels, c.h, c.w);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = static_cast<float>(i % 13) * 0.1f - 0.5f;
    Tensor w(c.spec.out_channels, c.spec.in_channels, c.spec.kernel,
             c.spec.kernel);
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = static_cast<float>(i % 7) * 0.05f - 0.1f;
    Tensor b(1, c.spec.out_channels, 1, 1);
    Tensor y;
    const double flops = 2.0 * static_cast<double>(
        conv2d_macs(c.spec, c.h, c.w));

    jw->begin_object();
    jw->key("name").value(c.name);
    jw->key("in_shape").value("[" + std::to_string(c.spec.in_channels) + "," +
                              std::to_string(c.h) + "," +
                              std::to_string(c.w) + "]");
    jw->key("kernel").value(c.spec.kernel);
    jw->key("stride").value(c.spec.stride);
    jw->key("dilation").value(c.spec.dilation);
    jw->key("macs").value(static_cast<long long>(flops / 2.0));
    for (GemmBackend be : {GemmBackend::kPacked, GemmBackend::kReference}) {
      // Explicit kernel argument — no global backend mutation.
      const double ns = time_ns(
          [&] {
            conv2d_forward(c.spec, x, w, b, &y, /*fuse_relu=*/true, be);
          },
          9);
      const std::string tag = ExecutionPolicy{be}.name();
      jw->key("ns_" + tag).value(ns);
      jw->key("gflops_" + tag).value(flops / ns);
    }
    // INT8 row (schema v3): the same conv through the quantized kernel,
    // weights frozen per-channel, activations calibrated on this input.
    // gflops_int8 counts the same nominal MAC work, so the three columns
    // are directly comparable.
    {
      float lo = x[0], hi = x[0];
      for (std::size_t i = 0; i < x.size(); ++i) {
        lo = std::min(lo, x[i]);
        hi = std::max(hi, x[i]);
      }
      const QuantizedWeights qw = quantize_weights(
          w.data(), c.spec.out_channels,
          c.spec.in_channels * c.spec.kernel * c.spec.kernel,
          choose_qparams(lo, hi));
      const double ns = time_ns(
          [&] {
            conv2d_forward_int8(c.spec, x, qw, b, &y, /*fuse_relu=*/true);
          },
          9);
      jw->key("ns_int8").value(ns);
      jw->key("gflops_int8").value(flops / ns);
    }
    jw->end_object();
  }
  jw->end_array();
}

void emit_detector_scales(JsonWriter* jw, Detector* det,
                          const Dataset& dataset) {
  const Renderer renderer = dataset.make_renderer();
  // v4: the policy each column ran under (pinned on the model per row).
  jw->key("detector_forward_policies").value("packed|reference per column");
  jw->key("detector_forward");
  jw->begin_array();
  for (int scale : {600, 480, 360, 240, 128}) {
    const Tensor img = renderer.render_at_scale(
        *dataset.val_frames()[0], scale, dataset.scale_policy());
    jw->begin_object();
    jw->key("scale").value(scale);
    jw->key("image").value("[" + std::to_string(img.h()) + "," +
                           std::to_string(img.w()) + "]");
    jw->key("macs").value(det->forward_macs(img.h(), img.w()));
    for (GemmBackend be : {GemmBackend::kPacked, GemmBackend::kReference}) {
      det->set_execution_policy(ExecutionPolicy{be});
      const double ns = time_ns([&] { det->forward(img); }, 7);
      const std::string tag = det->execution_policy().name();
      jw->key("forward_ms_" + tag).value(ns * 1e-6);
      jw->key("fps_" + tag).value(1e9 / ns);
    }
    jw->end_object();
  }
  jw->end_array();
  det->set_execution_policy(ExecutionPolicy::env_default());
}

/// Multi-stream serving: aggregate FPS of the unbatched table loop (run())
/// vs run_batched at several max_batch values, identical jobs.
/// Best-of-two per mode damps scheduling noise.
void emit_multi_stream(JsonWriter* jw, Detector* det, const Dataset& dataset) {
  const Renderer renderer = dataset.make_renderer();
  RegressorConfig rcfg;
  rcfg.in_channels = det->feature_channels();
  Rng rng(17);
  ScaleRegressor regressor(rcfg, &rng);
  // The serving-throughput numbers are always the packed-fp32 ones,
  // regardless of what ADASCALE_GEMM happens to be in the environment.
  det->set_execution_policy(ExecutionPolicy::fp32());
  regressor.set_execution_policy(ExecutionPolicy::fp32());

  std::vector<const Snippet*> jobs;
  for (const Snippet& s : dataset.val_snippets()) jobs.push_back(&s);

  // Scales snap to the regressor set in BOTH modes (identical work): raw
  // Algorithm-1 decode yields arbitrary integer scales that almost never
  // coincide across streams, so without snapping run_batched cannot form
  // batches at all.
  const int streams = 4;
  MultiStreamRunner runner(det, &regressor, &renderer, dataset.scale_policy(),
                           ScaleSet::reg_default(), streams,
                           /*init_scale=*/600, /*snap_scales=*/true);

  auto best_fps = [](MultiStreamResult a, const MultiStreamResult& b) {
    return a.aggregate_fps >= b.aggregate_fps ? a : b;
  };
  runner.run(jobs);  // warm caches, arenas, pool
  const MultiStreamResult unbatched =
      best_fps(runner.run(jobs), runner.run(jobs));

  jw->key("multi_stream");
  jw->begin_object();
  // v4: the (shared) per-model policy every stream clone served under.
  jw->key("policy").value(det->execution_policy().name());
  jw->key("streams").value(streams);
  jw->key("scales_snapped_to_reg_set").value(true);
  jw->key("cores").value(
      static_cast<int>(std::thread::hardware_concurrency()));
  jw->key("frames").value(static_cast<long long>(unbatched.total_frames));
  jw->key("unbatched_fps").value(unbatched.aggregate_fps);
  jw->key("batched");
  jw->begin_array();
  // Sweep stops at `streams`: each stream has at most one outstanding
  // frame, so a larger max_batch can never fill further.
  for (int mb : {2, 4}) {
    BatchSchedulerConfig cfg;
    cfg.max_batch = mb;
    const MultiStreamResult r =
        best_fps(runner.run_batched(jobs, cfg), runner.run_batched(jobs, cfg));
    jw->begin_object();
    jw->key("max_batch").value(mb);
    jw->key("fps").value(r.aggregate_fps);
    jw->key("speedup_vs_unbatched")
        .value(unbatched.aggregate_fps > 0.0
                   ? r.aggregate_fps / unbatched.aggregate_fps
                   : 0.0);
    jw->key("mean_batch").value(r.batch_stats.mean_batch());
    jw->end_object();
  }
  jw->end_array();
  jw->end_object();
}

/// Stream-state-table density (schema v7): a 1000-stream runner over ONE
/// shared weight copy — resident parameter bytes vs what 1000 dedicated
/// clones would hold, plus a service-model-only run_timed pass over all
/// 1000 streams proving the table actually serves at that density (every
/// offered frame, no drops).  The queueing pass models service cost (no
/// inference), so this section is timing-free and deterministic.
void emit_stream_table(JsonWriter* jw, Detector* det, const Dataset& dataset) {
  const Renderer renderer = dataset.make_renderer();
  RegressorConfig rcfg;
  rcfg.in_channels = det->feature_channels();
  Rng rng(18);
  ScaleRegressor regressor(rcfg, &rng);

  const int streams = 1000;
  const int contexts_per_policy = 4;
  MultiStreamRunner runner(det, &regressor, &renderer, dataset.scale_policy(),
                           ScaleSet::reg_default(), streams,
                           /*init_scale=*/600, /*snap_scales=*/true,
                           contexts_per_policy);
  ModelTable* table = runner.model_table();

  // Three frames per stream, arrivals staggered so queues never overflow.
  const std::vector<Snippet>& snips = dataset.val_snippets();
  std::vector<StreamSchedule> schedules(streams);
  for (int s = 0; s < streams; ++s) {
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
  cfg.service_model = [](int, long, int, DegradeLevel) { return 2.0; };
  ManualClock clock;
  const TimedRunResult r = runner.run_timed(schedules, cfg, &clock);

  const std::size_t resident = table->resident_weight_bytes();
  const std::size_t cloned = table->cloned_weight_bytes(streams);
  jw->key("stream_table");
  jw->begin_object();
  jw->key("streams").value(streams);
  jw->key("contexts_per_policy").value(contexts_per_policy);
  jw->key("policy_pools").value(static_cast<long long>(table->pool_count()));
  jw->key("resident_weight_bytes").value(static_cast<long long>(resident));
  jw->key("cloned_baseline_bytes").value(static_cast<long long>(cloned));
  jw->key("weight_bytes_saved_ratio")
      .value(resident > 0 ? static_cast<double>(cloned) /
                                static_cast<double>(resident)
                          : 0.0);
  long streams_served = 0;
  for (const AdmissionStats& st : r.stream_stats)
    if (st.served > 0) ++streams_served;
  jw->key("streams_served").value(static_cast<long long>(streams_served));
  jw->key("frames_served").value(static_cast<long long>(r.served));
  jw->key("frames_offered").value(static_cast<long long>(r.offered));
  jw->key("frames_dropped")
      .value(static_cast<long long>(r.dropped_queue_full + r.dropped_deadline));
  jw->key("virtual_makespan_ms").value(r.makespan_ms);
  jw->end_object();
}

/// INT8 accuracy/latency cost on the *trained* detector (model cache; first
/// run trains): fixed-600 eval under fp32 packed vs the quantized path,
/// after calibrating on 8 validation frames — the mAP delta the ISSUE 4
/// acceptance bar reads.  Quantization state is frozen on a clone so the
/// measurement cannot perturb other sections.
void emit_quantized(JsonWriter* jw) {
  Harness h = make_vid_harness(default_cache_dir());
  std::unique_ptr<Detector> det =
      clone_detector(h.detector(ScaleSet::train_default()));
  // The standard 16-frame multi-scale calibration recipe, shared with
  // quickstart and tools/calibrate (Harness::make_calibration_set).
  const std::vector<Tensor> calib = h.make_calibration_set(16);

  // Pinned per-model policies select the backend per row; the process
  // default is never touched.
  det->set_execution_policy(ExecutionPolicy::fp32());
  det->quantize(calib);
  const MethodRun fp32 = h.evaluate("fixed-600/fp32",
                                    h.run_fixed(det.get(), 600));
  det->set_execution_policy(ExecutionPolicy::int8());
  const MethodRun int8 = h.evaluate("fixed-600/int8",
                                    h.run_fixed(det.get(), 600));

  jw->key("quantized");
  jw->begin_object();
  jw->key("policy_fp32").value("packed");
  jw->key("policy_int8").value("int8");
  jw->key("calibration_frames").value(static_cast<int>(calib.size()));
  jw->key("eval").value("fixed-600, quickstart harness val split");
  jw->key("map_fp32").value(100.0 * fp32.eval.map);
  jw->key("map_int8").value(100.0 * int8.eval.map);
  jw->key("map_delta").value(100.0 * (int8.eval.map - fp32.eval.map));
  jw->key("mean_ms_fp32").value(fp32.mean_ms);
  jw->key("mean_ms_int8").value(int8.mean_ms);
  jw->end_object();
}

/// DFF temporal reuse on the serving path (schema v5): a 1-stream serial
/// run over the trained harness's validation snippets, with and without
/// DFF at the default adaptive keyframe policy.  Records the per-stream
/// FPS multiplier, the keyframe share, mean warp-frame vs full-forward
/// cost, and the mAP delta — the numbers the DFF acceptance bar reads.
void emit_dff(JsonWriter* jw) {
  Harness h = make_vid_harness(default_cache_dir());
  std::unique_ptr<Detector> det =
      clone_detector(h.detector(ScaleSet::train_default()));
  std::unique_ptr<ScaleRegressor> reg = clone_regressor(h.regressor(
      ScaleSet::train_default(), h.default_regressor_config()));
  // Serving numbers are always packed fp32, like the multi_stream section.
  det->set_execution_policy(ExecutionPolicy::fp32());
  reg->set_execution_policy(ExecutionPolicy::fp32());

  std::vector<const Snippet*> jobs;
  for (const Snippet& s : h.dataset().val_snippets()) jobs.push_back(&s);

  // Serving outputs → per-snippet reference-frame detections so the
  // harness evaluator can score them (same rescale Harness::run_* apply).
  auto to_runs = [&](const MultiStreamResult& r) {
    std::vector<SnippetRun> runs;
    std::size_t fi = 0;
    for (const Snippet* job : jobs) {
      SnippetRun run;
      for (std::size_t f = 0; f < job->frames.size(); ++f, ++fi) {
        const AdaFrameOutput& out = r.streams[0].frames[fi];
        std::vector<EvalDetection> dets;
        dets.reserve(out.detections.detections.size());
        for (const Detection& d : out.detections.detections) {
          EvalDetection e;
          e.box = rescale_box(d.box, out.detections.image_h,
                              out.detections.image_w, h.reference_h(),
                              h.reference_w());
          e.class_id = d.class_id;
          e.score = d.score;
          dets.push_back(e);
        }
        run.frame_dets.push_back(std::move(dets));
        run.frame_ms.push_back(out.total_ms());
        run.frame_scales.push_back(out.scale_used);
      }
      runs.push_back(std::move(run));
    }
    return runs;
  };
  auto best_fps = [](MultiStreamResult a, const MultiStreamResult& b) {
    return a.aggregate_fps >= b.aggregate_fps ? a : b;
  };

  MultiStreamRunner base(det.get(), reg.get(), &h.renderer(),
                         h.dataset().scale_policy(), ScaleSet::reg_default(),
                         /*num_streams=*/1);
  base.run_serial(jobs);  // warm caches, arenas, pool
  const MultiStreamResult baseline =
      best_fps(base.run_serial(jobs), base.run_serial(jobs));

  MultiStreamRunner runner(det.get(), reg.get(), &h.renderer(),
                           h.dataset().scale_policy(), ScaleSet::reg_default(),
                           /*num_streams=*/1);
  const DffServingConfig scfg;  // default adaptive policy, every trigger on
  runner.set_dff(scfg);
  runner.run_serial(jobs);
  const MultiStreamResult dff =
      best_fps(runner.run_serial(jobs), runner.run_serial(jobs));

  long keys = 0, warps = 0;
  double key_ms = 0.0, warp_ms = 0.0;
  for (const AdaFrameOutput& f : dff.streams[0].frames) {
    if (f.dff_key) {
      ++keys;
      key_ms += f.total_ms();
    } else {
      ++warps;
      warp_ms += f.total_ms();
    }
  }

  const MethodRun base_eval = h.evaluate("serving/no-dff", to_runs(baseline));
  const MethodRun dff_eval = h.evaluate("serving/dff", to_runs(dff));

  jw->key("dff");
  jw->begin_object();
  jw->key("policy").value("packed");
  jw->key("keyframe_policy").value("adaptive");
  jw->key("adascale").value(true);
  jw->key("streams").value(1);
  jw->key("frames").value(static_cast<long long>(dff.total_frames));
  jw->key("keyframes").value(static_cast<long long>(keys));
  jw->key("keyframe_share")
      .value(dff.total_frames > 0
                 ? static_cast<double>(keys) /
                       static_cast<double>(dff.total_frames)
                 : 0.0);
  jw->key("full_frame_ms").value(keys > 0 ? key_ms / keys : 0.0);
  jw->key("warp_frame_ms").value(warps > 0 ? warp_ms / warps : 0.0);
  jw->key("fps_baseline").value(baseline.aggregate_fps);
  jw->key("fps_dff").value(dff.aggregate_fps);
  jw->key("fps_multiplier")
      .value(baseline.aggregate_fps > 0.0
                 ? dff.aggregate_fps / baseline.aggregate_fps
                 : 0.0);
  jw->key("map_baseline").value(100.0 * base_eval.eval.map);
  jw->key("map_dff").value(100.0 * dff_eval.eval.map);
  jw->key("map_delta")
      .value(100.0 * (dff_eval.eval.map - base_eval.eval.map));
  jw->end_object();
}

/// Overload SLO under bursty arrivals (schema v6): the trained models
/// served twice through the virtual-time arrival loop
/// (MultiStreamRunner::run_timed) over identical seeded bursty schedules —
/// an uncontrolled baseline vs the AdaScale graceful-degradation
/// controller (runtime/overload_controller.h).  Service cost is the
/// measured per-frame inference time; arrival rates auto-calibrate against
/// it (like tools/loadgen), so the burst is a genuine ~2x overload on the
/// machine at hand.  Records p50/p95/p99 latency, drop rate, deadline
/// compliance, the degradation timeline, and the mAP cost of degrading —
/// dropped frames score as missed detections, so the drop rate is paid for
/// in the same currency as the scale cap.
void emit_serving_slo(JsonWriter* jw) {
  Harness h = make_vid_harness(default_cache_dir());
  std::unique_ptr<Detector> det =
      clone_detector(h.detector(ScaleSet::train_default()));
  std::unique_ptr<ScaleRegressor> reg = clone_regressor(h.regressor(
      ScaleSet::train_default(), h.default_regressor_config()));
  det->set_execution_policy(ExecutionPolicy::fp32());
  reg->set_execution_policy(ExecutionPolicy::fp32());

  const int streams = 2;
  std::vector<const Snippet*> jobs;
  for (const Snippet& s : h.dataset().val_snippets()) jobs.push_back(&s);

  // Stream s serves snippets s, s+streams, ... — remember each stream's
  // flattened (job, frame) order so timed records (keyed by per-stream
  // seq) map back onto snippets for evaluation.
  struct FrameRef {
    std::size_t job;
    std::size_t frame;
  };
  std::vector<std::vector<const Snippet*>> stream_jobs(streams);
  std::vector<std::vector<FrameRef>> stream_frames(streams);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const int s = static_cast<int>(j % static_cast<std::size_t>(streams));
    stream_jobs[static_cast<std::size_t>(s)].push_back(jobs[j]);
    for (std::size_t f = 0; f < jobs[j]->frames.size(); ++f)
      stream_frames[static_cast<std::size_t>(s)].push_back({j, f});
  }

  // Calibrate the scenario against measured service at scale 600: whole
  // frames, render included, as the timed run charges them.
  double svc600_ms;
  {
    AdaScalePipeline probe(det.get(), reg.get(), &h.renderer(),
                           h.dataset().scale_policy(), ScaleSet::reg_default(),
                           600, /*snap_to_set=*/true);
    probe.process(jobs[0]->frames[0]);  // warm caches/arena
    probe.reset();
    Timer probe_timer;
    const int n = std::min(4, jobs[0]->num_frames());
    for (int f = 0; f < n; ++f)
      probe.process(jobs[0]->frames[static_cast<std::size_t>(f)]);
    svc600_ms = probe_timer.elapsed_ms() / n;
  }
  const double capacity_hz = 1000.0 / svc600_ms;
  const double base_rate = 0.6 * capacity_hz / streams;
  const double burst_rate = 2.0 * capacity_hz / streams;
  const double deadline_ms = 15.0 * svc600_ms;

  TimedRunConfig cfg;  // run_inference: charged the measured whole frame
  cfg.admission.capacity = 64;
  cfg.admission.deadline_ms = deadline_ms;

  auto make_schedules = [&]() {
    std::vector<StreamSchedule> schedules;
    for (int s = 0; s < streams; ++s) {
      Rng rng(2019u + 31u * static_cast<std::uint64_t>(s));
      schedules.push_back(bursty_schedule(
          stream_jobs[static_cast<std::size_t>(s)], base_rate, burst_rate,
          /*burst_period_ms=*/1000.0, /*burst_len_ms=*/400.0, 0.0, &rng));
    }
    return schedules;
  };

  auto run_once = [&](OverloadController* controller, ManualClock* clock) {
    MultiStreamRunner runner(det.get(), reg.get(), &h.renderer(),
                             h.dataset().scale_policy(),
                             ScaleSet::reg_default(), streams, 600,
                             /*snap_scales=*/true);
    return runner.run_timed(make_schedules(), cfg, clock, controller);
  };

  ManualClock baseline_clock;
  const TimedRunResult baseline = run_once(nullptr, &baseline_clock);

  ManualClock controlled_clock;
  OverloadControllerConfig ccfg;
  ccfg.scale_cap = 360;
  ccfg.slack_low_ms = 0.5 * deadline_ms;
  ccfg.min_dwell_ms = 10.0 * svc600_ms;
  OverloadController controller(ccfg, ScaleSet::reg_default(),
                                &controlled_clock);
  const TimedRunResult controlled = run_once(&controller, &controlled_clock);

  // Timed records -> per-snippet runs for the evaluator.  Dropped frames
  // keep their empty detection list: a shed frame IS a missed detection
  // set, which is exactly how the drop rate should be priced in mAP.
  auto to_runs = [&](const TimedRunResult& r) {
    std::vector<SnippetRun> runs(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t nf = jobs[j]->frames.size();
      runs[j].frame_dets.resize(nf);
      runs[j].frame_ms.assign(nf, 0.0);
      runs[j].frame_scales.assign(nf, 0);
    }
    for (const TimedFrameRecord& f : r.frames) {
      const FrameRef ref = stream_frames[static_cast<std::size_t>(f.stream)]
                                        [static_cast<std::size_t>(f.seq)];
      runs[ref.job].frame_scales[ref.frame] = f.scale_used;
      if (f.dropped) continue;
      runs[ref.job].frame_ms[ref.frame] = f.output.total_ms();
      std::vector<EvalDetection> dets;
      dets.reserve(f.output.detections.detections.size());
      for (const Detection& d : f.output.detections.detections) {
        EvalDetection e;
        e.box = rescale_box(d.box, f.output.detections.image_h,
                            f.output.detections.image_w, h.reference_h(),
                            h.reference_w());
        e.class_id = d.class_id;
        e.score = d.score;
        dets.push_back(e);
      }
      runs[ref.job].frame_dets[ref.frame] = std::move(dets);
    }
    return runs;
  };
  const MethodRun base_eval =
      h.evaluate("serving/slo-baseline", to_runs(baseline));
  const MethodRun ctrl_eval =
      h.evaluate("serving/slo-controller", to_runs(controlled));

  auto emit_side = [&](const char* key, const TimedRunResult& r,
                       const MethodRun& eval) {
    jw->key(key);
    jw->begin_object();
    jw->key("p50_ms").value(r.latency.p50());
    jw->key("p95_ms").value(r.latency.p95());
    jw->key("p99_ms").value(r.latency.p99());
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
    jw->key("map").value(100.0 * eval.eval.map);
    jw->key("degrade_timeline");
    jw->begin_array();
    for (const DegradeEvent& e : r.timeline) {
      jw->begin_object();
      jw->key("ms").value(e.ms);
      jw->key("from").value(degrade_level_name(e.from));
      jw->key("to").value(degrade_level_name(e.to));
      jw->key("depth").value(e.depth);
      jw->end_object();
    }
    jw->end_array();
    jw->end_object();
  };

  jw->key("serving_slo");
  jw->begin_object();
  jw->key("policy").value("packed");
  jw->key("streams").value(streams);
  jw->key("service_ms_at_600").value(svc600_ms);
  jw->key("base_rate_hz").value(base_rate);
  jw->key("burst_rate_hz").value(burst_rate);
  jw->key("burst_period_ms").value(1000.0);
  jw->key("burst_len_ms").value(400.0);
  jw->key("deadline_ms").value(deadline_ms);
  jw->key("queue_capacity").value(cfg.admission.capacity);
  jw->key("scale_cap").value(ccfg.scale_cap);
  emit_side("baseline", baseline, base_eval);
  emit_side("controller", controlled, ctrl_eval);
  jw->key("map_delta")
      .value(100.0 * (ctrl_eval.eval.map - base_eval.eval.map));
  jw->end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  Dataset dataset = Dataset::synth_vid(1, 1, 77);
  DetectorConfig dcfg;
  dcfg.num_classes = dataset.catalog().num_classes();
  Rng rng(1);
  Detector detector(dcfg, &rng);

  JsonWriter jw;
  jw.begin_object();
  jw.key("schema").value("adascale-bench-kernels-v9");
  jw.key("gemm_kernel_isa").value(gemm_kernel_isa());
  // lint:allow(R2) reporting the env-selected default in the JSON header —
  // a diagnostic read for humans; execution below pins ExecutionPolicy.
  jw.key("default_policy").value(gemm_backend_name());

  // The detector's real conv stack at the scale-600 rendering, straight
  // from the architecture's single source of truth so the perf-trajectory
  // file can never drift from what the model actually runs.
  const Renderer renderer = dataset.make_renderer();
  const Tensor img600 = renderer.render_at_scale(
      *dataset.val_frames()[0], 600, dataset.scale_policy());
  std::vector<ConvCase> cases;
  for (const Detector::ConvStackEntry& e :
       detector.conv_stack(img600.h(), img600.w()))
    cases.push_back({std::string(e.name) + "@600", e.spec, e.in_h, e.in_w});
  emit_conv_cases(&jw, cases);
  emit_detector_scales(&jw, &detector, dataset);

  // Serving throughput on a separate small job pool (8 snippets over 4
  // streams), default kernel pool: the batched-vs-unbatched comparison the
  // batching acceptance bar reads.
  Dataset stream_dataset = Dataset::synth_vid(1, 8, 99);
  emit_multi_stream(&jw, &detector, stream_dataset);

  // Stream-state-table density: 1000 streams over one resident weight copy
  // (schema v7).
  emit_stream_table(&jw, &detector, stream_dataset);

  // INT8 accuracy cost on the trained detector (schema v3).
  emit_quantized(&jw);

  // DFF serving FPS multiplier + accuracy budget on the trained models
  // (schema v5; shares the model cache with the quantized section).
  emit_dff(&jw);

  // Overload SLO: bursty arrivals through the virtual-time serving loop,
  // baseline vs the graceful-degradation controller (schema v6).
  emit_serving_slo(&jw);
  jw.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << jw.str() << "\n";
  std::printf("%s\n", jw.str().c_str());
  std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
  return 0;
}
