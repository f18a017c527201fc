#include "runtime/multi_stream.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "runtime/thread_pool.h"
#include "util/timer.h"

namespace ada {

/// One stream-state-table entry: pure per-stream state.  The pipeline's
/// StreamContext carries all cross-frame mutable state; the policy pair
/// records which ModelTable pool this stream's frames lease compute from.
/// No models and no thread live here — that is the point.
struct MultiStreamRunner::Stream {
  std::unique_ptr<AdaScalePipeline> pipeline;
  ExecutionPolicy det_policy;
  ExecutionPolicy reg_policy;
};

MultiStreamRunner::MultiStreamRunner(Detector* prototype_detector,
                                     ScaleRegressor* prototype_regressor,
                                     const Renderer* renderer,
                                     const ScalePolicy& policy,
                                     const ScaleSet& sreg, int num_streams,
                                     int init_scale, bool snap_scales,
                                     int contexts_per_policy) {
  if (num_streams <= 0) {
    std::fprintf(stderr,
                 "MultiStreamRunner: num_streams must be >= 1 (got %d)\n",
                 num_streams);
    std::abort();
  }
  if (prototype_detector == nullptr || prototype_regressor == nullptr) {
    std::fprintf(stderr, "MultiStreamRunner: null prototype models\n");
    std::abort();
  }
  table_ = std::make_unique<ModelTable>(prototype_detector,
                                        prototype_regressor,
                                        contexts_per_policy);
  const ExecutionPolicy det_policy = prototype_detector->execution_policy();
  const ExecutionPolicy reg_policy = prototype_regressor->execution_policy();
  // Null renderer, non-positive init_scale and an empty scale set abort
  // loudly inside the AdaScalePipeline constructor below.
  streams_.reserve(static_cast<std::size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) {
    auto stream = std::make_unique<Stream>();
    stream->det_policy = det_policy;
    stream->reg_policy = reg_policy;
    // The masters satisfy the pipeline's non-null model contract but are
    // never touched while a pool is bound — all frames lease contexts.
    stream->pipeline = std::make_unique<AdaScalePipeline>(
        table_->master_detector(), table_->master_regressor(), renderer,
        policy, sreg, init_scale, snap_scales);
    stream->pipeline->bind_pool(table_->pool_for(det_policy, reg_policy));
    streams_.push_back(std::move(stream));
  }
}

MultiStreamRunner::~MultiStreamRunner() = default;

int MultiStreamRunner::num_streams() const {
  return static_cast<int>(streams_.size());
}

void MultiStreamRunner::set_stream_policy(
    int stream, const ExecutionPolicy& detector_policy,
    const ExecutionPolicy& regressor_policy) {
  Stream& s = *streams_.at(static_cast<std::size_t>(stream));
  s.det_policy = detector_policy;
  s.reg_policy = regressor_policy;
  s.pipeline->bind_pool(table_->pool_for(detector_policy, regressor_policy));
}

void MultiStreamRunner::set_dff(const DffServingConfig& cfg) {
  for (const auto& s : streams_) s->pipeline->set_dff(cfg);
}

void MultiStreamRunner::set_scale_cap(int cap) {
  for (const auto& s : streams_) s->pipeline->set_scale_cap(cap);
}

void BatchSchedulerConfig::validate() const {
  if (max_batch < 1) {
    std::fprintf(stderr, "BatchSchedulerConfig: max_batch must be >= 1 "
                         "(got %d)\n", max_batch);
    std::abort();
  }
}

/// What a timed run adds to the dispatch loop: its knobs, its clock, the
/// optional controller, and the result its records and counters go to.
struct MultiStreamRunner::Timed {
  const TimedRunConfig& cfg;
  ManualClock* clock;
  OverloadController* controller;
  TimedRunResult* result;
};

MultiStreamResult MultiStreamRunner::serve(
    const std::vector<StreamSchedule>& schedules, int workers, int max_batch,
    const Timed* timed) {
  const std::size_t n = streams_.size();
  MultiStreamResult result;
  result.streams.resize(n);
  for (std::size_t s = 0; s < n; ++s)
    result.streams[s].stream_id = static_cast<int>(s);
  if (workers == 0)
    workers = std::max(
        1, std::min(static_cast<int>(n),
                    static_cast<int>(std::thread::hardware_concurrency())));
  // A drain serves a backlog: every frame due at time zero against a clock
  // that never advances, in queues that never fill under a deadline nothing
  // misses, so "has queued frames" is the only readiness condition.
  AdmissionConfig backlog;
  backlog.capacity = std::numeric_limits<int>::max();
  backlog.deadline_ms = 1e15;
  ManualClock backlog_clock(0.0);
  const AdmissionConfig& admission =
      timed != nullptr ? timed->cfg.admission : backlog;
  ManualClock* const clock = timed != nullptr ? timed->clock : &backlog_clock;
  OverloadController* const controller =
      timed != nullptr ? timed->controller : nullptr;

  // Stream-state-table entries.  A stream is idle (nothing queued), ready
  // (frames queued, none in service) or busy (its frame is owned by one
  // worker or parked in a bucket), never two — so within-stream frame order,
  // and thus bit-identical output, holds for any worker count.  `mu` guards
  // all of this but a busy stream's pipeline, in-flight slot and output.
  std::mutex mu;
  std::condition_variable cv;
  struct InFlight {  // a busy stream's frame, from its pick to its finish
    AdmittedFrame frame;
    double busy_ms = 0.0;  // measured time of its halves so far
  };
  std::vector<ArrivalQueue> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s) queues.emplace_back(admission, clock);
  enum class Slot : char { kIdle, kReady, kBusy };
  std::vector<Slot> slot(n, Slot::kIdle);
  std::vector<InFlight> flight(n);
  long ready = 0;    // streams in the ready set
  long holding = 0;  // streams that are ready or busy

  // A timed run's record of one offered frame, stamped with the clock and
  // the rung in force now.  Its one worker moves neither while a frame is in
  // service, so a served frame, recorded at its finish, reads its pick's.
  auto record = [&](std::size_t s, long seq,
                    double arrival_ms) -> TimedFrameRecord& {
    TimedFrameRecord& r = timed->result->frames.emplace_back();
    r.stream = static_cast<int>(s);
    r.seq = seq;
    r.arrival_ms = arrival_ms;
    r.start_ms = r.finish_ms = clock->now_ms();
    if (controller != nullptr) r.level = controller->level();
    return r;
  };
  // Only a timed run drops: a drain's queues never fill and its deadline
  // never passes.
  auto record_drop = [&](std::size_t s, long seq, double arrival_ms,
                         DropReason reason) {
    TimedFrameRecord& r = record(s, seq, arrival_ms);
    r.dropped = true;
    r.drop_reason = reason;
  };

  // Arrivals are delivered once the clock reaches them, stamped with their
  // scheduled time (one that landed during a service window has queued
  // since); a full queue drops one at the rung in force before the next
  // tick.  A drain delivers its whole backlog here, at once.
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> next(n, 0);
  double next_due = kNever;
  auto deliver = [&] {
    const double now = clock->now_ms();
    next_due = kNever;
    for (std::size_t s = 0; s < n; ++s) {
      const StreamSchedule& sch = schedules[s];
      for (; next[s] < sch.size() && sch[next[s]].ms <= now; ++next[s]) {
        const FrameArrival& a = sch[next[s]];
        if (!queues[s].offer(a.scene, a.snippet_start, a.ms)) {
          record_drop(s, static_cast<long>(next[s]), a.ms,
                      DropReason::kQueueFull);
        } else if (slot[s] == Slot::kIdle) {
          slot[s] = Slot::kReady;
          ++ready;
          ++holding;
        }
      }
      if (next[s] < sch.size()) next_due = std::min(next_due, sch[next[s]].ms);
    }
  };
  deliver();

  // The controller's tick, taken where a worker picks a stream: one
  // observation of the worst queue depth and head-of-line slack, then the
  // rung's actions — the scale cap (0 lifts it), the degraded policies
  // (saved on the switch, restored on recovery) and deadline shedding.
  // Re-pooling streams mid-run is safe because a timed run has one worker.
  std::vector<std::pair<ExecutionPolicy, ExecutionPolicy>> saved_policies;
  auto restore_policies = [&] {
    for (std::size_t s = 0; s < saved_policies.size(); ++s)
      set_stream_policy(static_cast<int>(s), saved_policies[s].first,
                        saved_policies[s].second);
    saved_policies.clear();
  };
  auto tick = [&] {
    int max_depth = 0;
    double min_slack = admission.deadline_ms;
    for (const ArrivalQueue& q : queues) {
      max_depth = std::max(max_depth, q.depth());
      min_slack = std::min(min_slack, q.oldest_slack_ms());
    }
    const DegradeLevel level = controller->observe(max_depth, min_slack);
    const OverloadControllerConfig& ccfg = controller->config();
    set_scale_cap(level >= DegradeLevel::kScaleCap && ccfg.enable_scale_cap
                      ? ccfg.scale_cap
                      : 0);
    if (!controller->policy_switch_active()) {
      restore_policies();
    } else if (saved_policies.empty()) {
      for (std::size_t s = 0; s < n; ++s) {
        saved_policies.emplace_back(streams_[s]->det_policy,
                                    streams_[s]->reg_policy);
        set_stream_policy(static_cast<int>(s),
                          timed->cfg.degraded_detector_policy,
                          timed->cfg.degraded_regressor_policy);
      }
    }
    if (controller->shedding_active()) {
      for (std::size_t s = 0; s < n; ++s) {
        for (const AdmittedFrame& f : queues[s].shed_expired())
          record_drop(s, f.seq, f.arrival_ms, DropReason::kDeadline);
        if (slot[s] == Slot::kReady && queues[s].empty()) {
          slot[s] = Slot::kIdle;
          --ready;
          --holding;
        }
      }
    }
  };

  // Buckets of staged backbone frames, keyed by the stream's pool and the
  // rendered size (ordered maps, R5).  A bucket closes when it holds
  // max_batch frames, or when every stream that still holds frames is
  // parked: then no frame can join any open bucket, so all of them close.
  // That needs no deadline, and a stream that runs out of frames stops
  // counting, so no frame is stranded.  Closed buckets are keyed by the
  // park order of their oldest frame and served oldest first.
  struct Parked {
    std::size_t sid = 0;
    long seq = 0;  // park order
    AdaScalePipeline::StagedFrame frame;
  };
  using Bucket = std::vector<Parked>;
  std::map<std::tuple<const ModelPool*, int, int>, Bucket> open;
  std::map<long, Bucket> closed;
  long parked = 0;  // frames in open or closed buckets
  long park_seq = 0;
  result.batch_stats.batch_size_hist.assign(
      static_cast<std::size_t>(max_batch) + 1, 0);
  auto close_bucket = [&](auto it) {
    const long oldest = it->second.front().seq;
    closed.emplace(oldest, std::move(it->second));
    return open.erase(it);
  };

  // A drain appends a served frame to its stream's output; a timed run
  // charges its service (modeled, or the measured time of its halves) plus
  // any injected fault to the clock, and records it.
  auto finish = [&](std::size_t sid, AdaFrameOutput&& out) {
    const InFlight& fl = flight[sid];
    if (timed == nullptr) {
      StreamOutput& so = result.streams[sid];
      so.busy_ms += fl.busy_ms;
      so.frames.push_back(std::move(out));
      return;
    }
    const TimedRunConfig& cfg = timed->cfg;
    TimedFrameRecord& r = record(sid, fl.frame.seq, fl.frame.arrival_ms);
    r.scale_used = out.scale_used;
    double svc = cfg.service_model ? cfg.service_model(r.stream, r.seq,
                                                       r.scale_used, r.level)
                                   : fl.busy_ms;
    svc += cfg.faults.extra_service_ms(r.stream, r.seq);
    clock->advance(svc);
    r.finish_ms = clock->now_ms();
    r.deadline_met = r.finish_ms <= fl.frame.deadline_ms;
    timed->result->latency.record(r.finish_ms - r.arrival_ms);
    if (!r.deadline_met) ++timed->result->deadline_violations;
    if (cfg.run_inference) r.output = std::move(out);
  };
  // A stream's frame is done: back to the ready set, or idle.
  auto frame_done = [&](std::size_t sid) {
    if (queues[sid].empty()) {
      slot[sid] = Slot::kIdle;
      --holding;
    } else {
      slot[sid] = Slot::kReady;
      ++ready;
    }
  };

  // Busy workers that alone outnumber the kernel pool's threads already
  // cover every core the pool is sized for; fanning a frame's kernels out
  // as well would only oversubscribe those cores, so the frame runs inline
  // on its worker.  A stream is served by one worker at a time, so at most
  // min(workers, streams still holding frames) workers are busy.  Counted
  // from the queue lengths, that exceeds the pool's threads for a stream's
  // i-th frame exactly when i is below the (threads + 1)-th longest queue.
  // Deeper frames are an uneven drain's tail: they fan out again onto the
  // cores the finished streams freed.  A batch follows the rule of its
  // oldest frame.  Bytes do not move: parallel_for chunks write disjoint
  // ranges either way.
  const std::size_t pool_threads =
      static_cast<std::size_t>(global_pool()->num_threads());
  std::size_t inline_depth = 0;
  if (static_cast<std::size_t>(workers) > pool_threads && n > pool_threads) {
    std::vector<std::size_t> lengths;
    lengths.reserve(n);
    for (const StreamSchedule& sch : schedules) lengths.push_back(sch.size());
    const auto kth =
        lengths.begin() + static_cast<std::ptrdiff_t>(pool_threads);
    std::nth_element(lengths.begin(), kth, lengths.end(),
                     std::greater<std::size_t>());
    inline_depth = *kth;
  }
  auto runs_inline = [&](std::size_t sid) {
    return static_cast<std::size_t>(flight[sid].frame.seq) < inline_depth;
  };

  // One pick rule for every entry point: the first ready stream after the
  // one dispatched last.  One worker therefore serves in round robin.
  std::size_t last = n - 1;
  auto worker_main = [&]() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      if (next_due <= clock->now_ms()) deliver();
      if (closed.empty() && ready == 0) {
        if (holding > 0) {
          cv.wait(lk);
        } else if (next_due == kNever) {
          cv.notify_all();
          return;
        } else {
          // Only a timed run idles; its one worker jumps to the next arrival.
          clock->advance_to(next_due);
        }
        continue;
      }
      if (!closed.empty()) {
        // Serve the closed bucket whose oldest frame parked first.  Its
        // streams are owned by this worker until their frames are done.
        Bucket batch = std::move(closed.begin()->second);
        closed.erase(closed.begin());
        const int nb = static_cast<int>(batch.size());
        parked -= nb;
        BatchSchedulerStats& st = result.batch_stats;
        st.frames += nb;
        if (max_batch == 1 || (nb == 1 && holding == 1)) {
          ++st.single_fallbacks;
        } else {
          ++st.batches;
          ++st.batch_size_hist[static_cast<std::size_t>(nb)];
        }
        lk.unlock();
        std::vector<AdaScalePipeline::StagedFrame*> frames;
        frames.reserve(batch.size());
        for (Parked& p : batch) frames.push_back(&p.frame);
        std::optional<InlineKernelScope> own_core;
        if (runs_inline(batch[0].sid)) own_core.emplace();
        Timer batch_timer;
        AdaScalePipeline::serve_backbone(frames.data(), nb);
        const double share_ms = batch_timer.elapsed_ms() / nb;
        own_core.reset();
        for (Parked& p : batch) {
          flight[p.sid].busy_ms += share_ms;
          finish(p.sid, std::move(p.frame.out));
        }
        lk.lock();
        for (const Parked& p : batch) frame_done(p.sid);
      } else {
        if (controller != nullptr) {
          tick();
          if (ready == 0) continue;  // shedding emptied every queue
        }
        std::size_t sid = last;
        do sid = (sid + 1) % n; while (slot[sid] != Slot::kReady);
        last = sid;
        slot[sid] = Slot::kBusy;
        --ready;
        InFlight& fl = flight[sid] = InFlight{queues[sid].pop(), 0.0};
        lk.unlock();
        AdaScalePipeline& pipeline = *streams_[sid]->pipeline;
        if (fl.frame.snippet_start) pipeline.reset();
        AdaScalePipeline::StagedFrame staged;
        if (timed == nullptr || timed->cfg.run_inference) {
          std::optional<InlineKernelScope> own_core;
          if (runs_inline(sid)) own_core.emplace();
          Timer stage_timer;
          staged = pipeline.stage(*fl.frame.scene);
          fl.busy_ms = stage_timer.elapsed_ms();
        } else {
          // Queueing only: no pipeline work, just the scale it would serve.
          const int scale = pipeline.current_scale();
          staged.out.scale_used =
              controller != nullptr ? controller->apply_scale(scale) : scale;
        }
        const bool done = !staged.needs_backbone;  // e.g. a DFF warp frame
        if (done) finish(sid, std::move(staged.out));
        lk.lock();
        if (done) {
          frame_done(sid);
        } else {
          const auto key = std::make_tuple(
              static_cast<const ModelPool*>(pipeline.pool()),
              staged.image.h(), staged.image.w());
          auto it = open.try_emplace(key).first;
          it->second.push_back(Parked{sid, park_seq++, std::move(staged)});
          ++parked;
          if (static_cast<int>(it->second.size()) >= max_batch)
            close_bucket(it);
        }
      }
      // Every stream that holds frames is parked: no frame can join an open
      // bucket, so all of them close.
      if (parked >= holding)
        for (auto it = open.begin(); it != open.end();) it = close_bucket(it);
      // Wake peers: a stream became ready again, a bucket closed, or the
      // run just drained.
      cv.notify_all();
    }
  };

  Timer wall;
  if (workers <= 1) {
    worker_main();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker_main);
    for (std::thread& t : threads) t.join();
  }
  result.wall_ms = wall.elapsed_ms();

  for (const StreamOutput& s : result.streams)
    result.total_frames += static_cast<long>(s.frames.size());
  result.aggregate_fps = result.wall_ms > 0.0
                             ? 1000.0 * static_cast<double>(result.total_frames)
                                   / result.wall_ms
                             : 0.0;
  if (timed != nullptr) {
    TimedRunResult& tr = *timed->result;
    for (const ArrivalQueue& q : queues) {
      const AdmissionStats& st = q.stats();
      tr.stream_stats.push_back(st);
      tr.offered += st.offered;
      tr.served += st.served;
      tr.dropped_queue_full += st.dropped_queue_full;
      tr.dropped_deadline += st.dropped_deadline;
    }
    if (controller != nullptr) {
      tr.timeline = controller->timeline();
      tr.final_level = controller->level();
      // A timed run must not leak degraded state into later runs.
      restore_policies();
      set_scale_cap(0);
    }
  }
  return result;
}

MultiStreamResult MultiStreamRunner::run_table(
    const std::vector<const Snippet*>& jobs, const StreamTableConfig& cfg) {
  cfg.validate();
  return serve(schedules_from_jobs(jobs, num_streams()), cfg.workers,
               /*max_batch=*/1, nullptr);
}

MultiStreamResult MultiStreamRunner::run(
    const std::vector<const Snippet*>& jobs) {
  return run_table(jobs, StreamTableConfig{});
}

MultiStreamResult MultiStreamRunner::run_serial(
    const std::vector<const Snippet*>& jobs) {
  StreamTableConfig cfg;
  cfg.workers = 1;
  return run_table(jobs, cfg);
}

MultiStreamResult MultiStreamRunner::run_batched(
    const std::vector<const Snippet*>& jobs, const BatchSchedulerConfig& cfg) {
  cfg.validate();
  MultiStreamResult result =
      serve(schedules_from_jobs(jobs, num_streams()), /*workers=*/0,
            cfg.max_batch, nullptr);
  result.batched = true;
  return result;
}

void TimedRunConfig::validate() const {
  admission.validate();
  if (!run_inference && !service_model) {
    std::fprintf(stderr,
                 "TimedRunConfig: run_inference=false needs a service_model "
                 "— with both off there is no service time\n");
    std::abort();
  }
}

TimedRunResult MultiStreamRunner::run_timed(
    const std::vector<StreamSchedule>& schedules, const TimedRunConfig& cfg,
    ManualClock* clock, OverloadController* controller) {
  if (static_cast<int>(schedules.size()) != num_streams()) {
    std::fprintf(stderr,
                 "MultiStreamRunner::run_timed: %zu schedules for %d streams "
                 "— need exactly one per stream\n",
                 schedules.size(), num_streams());
    std::abort();
  }
  if (clock == nullptr) {
    std::fprintf(stderr, "MultiStreamRunner::run_timed: clock is required\n");
    std::abort();
  }
  cfg.validate();
  // Schedules cross a trust boundary: a NaN time never falls due and would
  // spin the loop, a time earlier than its predecessor is admitted late and
  // charged latency it never queued, and a null scene cannot be served.
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    for (std::size_t i = 0; i < schedules[s].size(); ++i) {
      const FrameArrival& a = schedules[s][i];
      const char* why = nullptr;
      if (!std::isfinite(a.ms))
        why = "arrival time is not finite";
      else if (i > 0 && a.ms < schedules[s][i - 1].ms)
        why = "arrival time is earlier than the frame before it";
      else if (cfg.run_inference && a.scene == nullptr)
        why = "scene is null";
      if (why != nullptr) {
        std::fprintf(stderr,
                     "MultiStreamRunner::run_timed: stream %zu frame %zu: "
                     "%s\n",
                     s, i, why);
        std::abort();
      }
    }
  }
  TimedRunResult result;
  const double t_begin = clock->now_ms();
  const Timed timed{cfg, clock, controller, &result};
  serve(schedules, /*workers=*/1, /*max_batch=*/1, &timed);
  result.makespan_ms = clock->now_ms() - t_begin;
  return result;
}

}  // namespace ada
