// Concurrent multi-stream serving of AdaScale pipelines.
//
// Production video analytics serves many independent camera/user streams at
// once.  Algorithm 1 is inherently sequential *within* a stream (frame t's
// deep features pick frame t+1's scale), but streams share nothing — so the
// scaling axis is across streams.
//
// MultiStreamRunner keeps streams as STATE, not threads: each stream is a
// stream-state-table entry (an AdaScalePipeline wrapping a StreamContext,
// plus an ArrivalQueue when frames are scheduled) and all model compute
// flows through a shared ModelTable (runtime/stream_table.h) — one resident
// master weight copy, leased per frame by a small pool of weight-aliased
// contexts.  Every entry point serves through one worker loop that
// dispatches one ready stream at a time: run()/run_serial()/run_table()
// drain a job list, run_batched() also parks rendered frames in same-scale
// buckets so several streams share one backbone forward, and run_timed()
// delivers scheduled arrivals on a virtual clock that each frame's service
// advances.  1k+ streams therefore cost 1k contexts-worth of kilobyte
// state, not 1k model clones.
//
// Job assignment is static round-robin (stream s takes jobs s, s+N, ...), so
// per-stream outputs are bit-identical to running the same jobs serially —
// the multi_stream and stream_table tests assert exactly that.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "adascale/pipeline.h"
#include "data/video.h"
#include "runtime/admission.h"
#include "runtime/fault_injection.h"
#include "runtime/overload_controller.h"
#include "runtime/stream_table.h"
#include "util/latency_histogram.h"

namespace ada {

/// Everything one stream produced: per-frame outputs in job order plus the
/// stream's busy wall-clock.
struct StreamOutput {
  int stream_id = 0;
  std::vector<AdaFrameOutput> frames;  ///< all frames of all jobs, in order
  double busy_ms = 0.0;                ///< time this stream spent processing
};

/// Batch formation knob of run_batched.
struct BatchSchedulerConfig {
  int max_batch = 8;  ///< close a bucket at this many frames

  /// Aborts loudly on a non-positive max_batch instead of a silent assert
  /// that vanishes in Release builds.
  void validate() const;
};

/// Batch counters of a run_batched drain.  Only backbone frames count: a
/// DFF warp frame never joins a batch.
struct BatchSchedulerStats {
  long frames = 0;           ///< backbone frames served
  long batches = 0;          ///< batched forwards executed (incl. size-1)
  /// Frames served alone because max_batch is 1 or because no other
  /// stream still held frames; every other frame is in batch_size_hist.
  long single_fallbacks = 0;
  std::vector<long> batch_size_hist;  ///< index b = batches of size b

  double mean_batch() const {
    return batches > 0 ? static_cast<double>(frames - single_fallbacks) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

/// Aggregate result of a multi-stream run.
struct MultiStreamResult {
  std::vector<StreamOutput> streams;  ///< indexed by stream id
  double wall_ms = 0.0;               ///< end-to-end wall-clock of the run
  long total_frames = 0;
  double aggregate_fps = 0.0;         ///< total_frames / wall_ms
  bool batched = false;               ///< produced by run_batched()
  BatchSchedulerStats batch_stats;    ///< meaningful when batched
};

/// Why a frame never produced output (TimedFrameRecord::drop_reason).
enum class DropReason : int {
  kNone = 0,       ///< not dropped
  kQueueFull = 1,  ///< tail-dropped on admission (bounded queue at capacity)
  kDeadline = 2,   ///< shed after admission with its deadline already passed
};

/// What happened to one offered frame in a timed (arrival-driven) run.
struct TimedFrameRecord {
  int stream = 0;
  long seq = 0;            ///< per-stream frame index, in offer order
  double arrival_ms = 0.0; ///< scheduled arrival (absolute clock time)
  double start_ms = 0.0;   ///< service start; equals drop time for drops
  double finish_ms = 0.0;  ///< service end; equals drop time for drops
  bool dropped = false;
  DropReason drop_reason = DropReason::kNone;
  bool deadline_met = false;  ///< served with finish <= arrival + deadline
  int scale_used = 0;         ///< nominal serving scale (0 for drops)
  DegradeLevel level = DegradeLevel::kNormal;  ///< controller rung in force
  AdaFrameOutput output;  ///< populated only when served with run_inference
};

/// Knobs of a timed run (see MultiStreamRunner::run_timed).
struct TimedRunConfig {
  AdmissionConfig admission;  ///< per-stream queue bound + relative deadline

  /// With true (default) every served frame runs the stream's real pipeline
  /// (detections, scale trajectory, measured latencies).  With false the
  /// pipelines are bypassed entirely — pure queueing simulation; a
  /// service_model is then mandatory.
  bool run_inference = true;

  /// Modeled service time in virtual ms for one frame:
  /// (stream, seq, scale_used, level) -> ms.  Null charges the frame's
  /// measured service: the wall time of both halves (render, flow, lease,
  /// forward, decode, regressor), so run_inference must then be true.
  /// Tests model service deterministically (e.g. quadratic in scale);
  /// loadgen measures it.
  std::function<double(int stream, long seq, int scale_used, DegradeLevel level)>
      service_model;

  /// Extra simulated service time per (stream, seq) — latency spikes,
  /// stalled-stream stragglers (runtime/fault_injection.h).
  FaultInjection faults;

  /// Policies installed on every stream while the controller's
  /// policy-switch rung is in force (and restored on recovery): the
  /// canonical degraded recipe is the quantized detector with the fp32
  /// regressor.
  ExecutionPolicy degraded_detector_policy = ExecutionPolicy::int8();
  ExecutionPolicy degraded_regressor_policy = ExecutionPolicy::fp32();

  /// Aborts loudly on inconsistent knobs (called by run_timed): the
  /// admission config must validate, and run_inference=false requires a
  /// service_model — with both off there is no service time at all.
  void validate() const;
};

/// Aggregate result of a timed run.  The per-stream AdmissionStats obey
///   offered  == admitted + dropped_queue_full
///   admitted == served + dropped_deadline      (queues drain before return)
struct TimedRunResult {
  std::vector<TimedFrameRecord> frames;      ///< completion/drop order
  std::vector<AdmissionStats> stream_stats;  ///< indexed by stream id
  LatencyHistogram latency;  ///< served frames only: finish - arrival (ms)
  long offered = 0;
  long served = 0;
  long dropped_queue_full = 0;
  long dropped_deadline = 0;
  long deadline_violations = 0;  ///< served, but after the deadline
  double makespan_ms = 0.0;      ///< virtual time from first call to drain
  std::vector<DegradeEvent> timeline;  ///< controller transitions (if any)
  DegradeLevel final_level = DegradeLevel::kNormal;

  double drop_rate() const {
    return offered > 0 ? static_cast<double>(dropped_queue_full +
                                             dropped_deadline) /
                             static_cast<double>(offered)
                       : 0.0;
  }
};

/// Drives N independent AdaScalePipeline instances over a shared
/// ModelTable.  (clone_detector_shared / clone_regressor_shared live with
/// their classes: detection/detector.h and adascale/scale_regressor.h.)
class MultiStreamRunner {
 public:
  /// Builds `num_streams` stream-state entries over ONE master weight copy
  /// (cloned from the prototypes, which are only read during construction)
  /// and per-policy pools of weight-aliased serving contexts.
  /// `contexts_per_policy` bounds how many frames of one policy pair can
  /// be in flight at once (<= 0 auto-sizes to hardware concurrency; see
  /// ModelTable).  `renderer` is stateless and shared by all streams.
  /// With snap_scales each pipeline quantizes its target scale to the
  /// nearest member of `sreg` (see AdaScalePipeline) — in every execution
  /// mode, so run(), run_serial() and run_batched() always process
  /// identical work; dense scale buckets are what lets run_batched()
  /// actually form batches.
  MultiStreamRunner(Detector* prototype_detector,
                    ScaleRegressor* prototype_regressor,
                    const Renderer* renderer, const ScalePolicy& policy,
                    const ScaleSet& sreg, int num_streams,
                    int init_scale = 600, bool snap_scales = false,
                    int contexts_per_policy = 0);
  ~MultiStreamRunner();

  MultiStreamRunner(const MultiStreamRunner&) = delete;
  MultiStreamRunner& operator=(const MultiStreamRunner&) = delete;

  int num_streams() const;

  /// The shared-weights model table backing every stream (inspection:
  /// resident_weight_bytes vs the cloned baseline, pool counts).  Owned by
  /// the runner; do not build pools while a run is in flight.
  ModelTable* model_table() { return table_.get(); }

  /// Overrides the execution policy of one stream (runtime/exec_policy.h)
  /// — heterogeneous serving, e.g. an int8 stream next to an fp32 stream
  /// with no shared backend state to race on.  A stream's policy pair
  /// selects which ModelTable context pool its frames lease from (pools
  /// are built on first use; the weights underneath stay one shared copy).
  /// By default every stream uses the prototypes' policies.  Every run
  /// mode honors per-stream policies; run_batched() batches only frames
  /// whose streams share a pool.  Setup-time only: must not race a running
  /// table.
  void set_stream_policy(int stream, const ExecutionPolicy& detector_policy,
                         const ExecutionPolicy& regressor_policy);

  /// Enables DFF temporal reuse (keyframe/warp serving) on every stream's
  /// pipeline and resets their per-stream contexts.  Applies to every run
  /// mode; under run_batched() key frames join cross-stream same-scale
  /// batches, while warp frames finish in their first half (flow + warp +
  /// heads, no backbone at all) and never join one.
  void set_dff(const DffServingConfig& cfg);

  /// Caps every stream's target scale at `cap` (0 lifts the cap) — the
  /// overload controller's first degradation rung, fanned out to each
  /// stream's AdaScalePipeline::set_scale_cap.  run_timed drives this
  /// automatically when given a controller; it is public so external
  /// operators (or tests) can impose a cap directly.
  void set_scale_cap(int cap);

  /// Processes every snippet through the stream-state table: job j goes to
  /// stream j % num_streams, each stream's frames land in its ArrivalQueue
  /// (all due immediately), and cfg.workers pooled threads repeatedly pick
  /// a ready stream, serve exactly ONE frame on leased contexts, and
  /// return the stream to the ready set.  A stream is owned by at most one
  /// worker at a time, so Algorithm 1's within-stream ordering — and
  /// therefore bit-identical per-stream output regardless of worker count
  /// or interleaving — holds by construction.  Pipelines reset() at each
  /// snippet boundary (Algorithm 1 restarts per video).  While the workers
  /// that can be busy (min(workers, streams still holding frames))
  /// outnumber the kernel pool's threads, each worker runs its frame's
  /// kernels inline on its own thread (InlineKernelScope).  That is decided
  /// per frame from the queue lengths at the start: a stream's i-th frame
  /// runs inline when workers and the streams with more than i frames both
  /// outnumber the pool's threads.  Other frames, such as an uneven drain's
  /// tail, fan out to the shared pool.  Either way the bytes are the same.
  MultiStreamResult run_table(const std::vector<const Snippet*>& jobs,
                              const StreamTableConfig& cfg = {});

  /// run_table with auto worker count — the default concurrent mode.
  MultiStreamResult run(const std::vector<const Snippet*>& jobs);

  /// run_table with ONE worker: fully sequential on the calling thread's
  /// pool.  Baseline for the throughput comparison; produces identical
  /// per-stream outputs to run().
  MultiStreamResult run_serial(const std::vector<const Snippet*>& jobs);

  /// run() with cross-stream batching: a worker renders a ready stream's
  /// frame (AdaScalePipeline::stage) and parks it in a bucket keyed by the
  /// stream's pool and the rendered size, then goes on serving other
  /// streams.  A bucket closes when it holds cfg.max_batch frames; when
  /// every stream that still holds frames is parked, every open bucket
  /// closes.  Workers serve closed buckets first, oldest parked frame
  /// first, each as ONE backbone forward (AdaScalePipeline::serve_backbone)
  /// on a context leased from the streams' own pool.  Because the batched
  /// kernels are bit-identical to the single-image ones, per-stream outputs
  /// are memcmp-equal to run()/run_serial() no matter how frames happened
  /// to batch; timing fields (detect_ms/regressor_ms) are amortized per
  /// frame.  A batch keeps run_table's inline-kernel rule, read off its
  /// oldest frame.  Counters land in MultiStreamResult::batch_stats.
  MultiStreamResult run_batched(const std::vector<const Snippet*>& jobs,
                                const BatchSchedulerConfig& cfg = {});

  /// Arrival-driven serving in virtual time: frames *arrive* on per-stream
  /// schedules (runtime/admission.h) instead of being pulled as fast as the
  /// hardware allows, pass through bounded deadline-stamped queues, and are
  /// served round-robin by one worker of run_table's loop, which advances
  /// `clock` by each frame's charged service (cfg.service_model, or the
  /// measured time of the whole frame) plus any injected fault.  With a
  /// service_model, queueing, drops, deadline slack and controller
  /// decisions are exact functions of the schedule + config, reproducible
  /// bit-for-bit with no sleeps and no dependence on machine speed or
  /// ADASCALE_THREADS.
  ///
  /// `schedules` must have exactly one (possibly empty) schedule per
  /// stream, each with finite, non-decreasing arrival times and, when
  /// cfg.run_inference, non-null scenes; anything else aborts naming the
  /// stream and frame.  `controller` is optional: null
  /// serves as configured no matter the backlog (the SLO baseline); with a
  /// controller the runner feeds it one observation at each pick (worst
  /// queue depth, worst head-of-line slack) and enforces whatever rung it
  /// chooses — scale caps via set_scale_cap, the degraded execution
  /// policies, deadline-aware shedding — until the run ends.  The run ends when every schedule
  /// is exhausted and every queue has drained (served or shed — with no
  /// controller, queued frames are always served, even late).
  TimedRunResult run_timed(const std::vector<StreamSchedule>& schedules,
                           const TimedRunConfig& cfg, ManualClock* clock,
                           OverloadController* controller = nullptr);

 private:
  struct Stream;
  struct Timed;
  /// The one dispatch loop behind every entry point: `workers` threads (0:
  /// one per stream, up to the cores) serve one frame of a ready stream at
  /// a time, batching up to `max_batch`.  Without `timed` the schedules are
  /// a backlog on a clock that never moves; run_timed's one worker also
  /// ticks the controller at each pick and charges each frame's service.
  MultiStreamResult serve(const std::vector<StreamSchedule>& schedules,
                          int workers, int max_batch, const Timed* timed);

  std::vector<std::unique_ptr<Stream>> streams_;
  std::unique_ptr<ModelTable> table_;  ///< shared weights + context pools
};

}  // namespace ada
