#include "runtime/multi_stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
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

MultiStreamResult MultiStreamRunner::drain(
    const std::vector<const Snippet*>& jobs, const StreamTableConfig& cfg,
    int max_batch) {
  cfg.validate();
  const std::size_t n = streams_.size();
  MultiStreamResult result;
  result.streams.resize(n);
  for (std::size_t s = 0; s < n; ++s)
    result.streams[s].stream_id = static_cast<int>(s);

  // Stream-state-table entries: every frame of every job lands in its
  // stream's ArrivalQueue up front (a backlog-drain schedule — all due at
  // time zero against a clock that never advances), so "has queued frames"
  // is the only readiness condition the dispatch loop needs.
  const std::vector<StreamSchedule> schedules =
      schedules_from_jobs(jobs, static_cast<int>(n));
  ManualClock clock(0.0);
  AdmissionConfig acfg;
  std::size_t max_frames = 1;
  for (const StreamSchedule& sch : schedules)
    max_frames = std::max(max_frames, sch.size());
  acfg.capacity = static_cast<int>(max_frames);
  acfg.deadline_ms = 1e15;  // throughput mode: nothing can expire
  std::vector<ArrivalQueue> queues;
  queues.reserve(n);
  long remaining = 0;
  for (std::size_t s = 0; s < n; ++s) {
    queues.emplace_back(acfg, &clock);
    for (const FrameArrival& a : schedules[s])
      queues[s].offer(a.scene, a.snippet_start, a.ms);
    remaining += static_cast<long>(schedules[s].size());
  }

  int workers = cfg.workers;
  if (workers == 0)
    workers = std::max(
        1, std::min(static_cast<int>(n),
                    static_cast<int>(std::thread::hardware_concurrency())));

  // Dispatch: a ready deque of stream ids.  A stream id is in the deque,
  // owned by exactly one worker, or parked with its staged frame in a
  // bucket, never two of these — within-stream frame order (and thus
  // bit-identical output) holds for any worker count.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  long holding = 0;  // streams that still hold frames
  for (std::size_t s = 0; s < n; ++s)
    if (!queues[s].empty()) {
      ready.push_back(static_cast<int>(s));
      ++holding;
    }

  // Buckets of staged backbone frames, keyed by the stream's pool and the
  // rendered size (ordered maps, R5).  A bucket closes when it holds
  // max_batch frames, or when every stream that still holds frames is
  // parked: then no frame can join any open bucket, so all of them close.
  // That needs no deadline, and a stream that runs out of frames stops
  // counting, so no frame is stranded.  Closed buckets are keyed by the
  // park order of their oldest frame and served oldest first.
  struct Parked {
    int sid = 0;
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
  auto close_if_all_parked = [&] {
    if (parked < holding) return;
    for (auto it = open.begin(); it != open.end();) it = close_bucket(it);
  };
  // A stream's frame is done: back to the ready set, or out of the count.
  auto frame_done = [&](int sid) {
    --remaining;
    if (!queues[static_cast<std::size_t>(sid)].empty())
      ready.push_back(sid);
    else
      --holding;
  };

  // Busy workers that alone outnumber the kernel pool's threads already
  // cover every core the pool is sized for; fanning a frame's kernels out
  // as well would only oversubscribe those cores, so the frame runs inline
  // on its worker.  A stream is served by one worker at a time, so at most
  // min(workers, streams still holding frames) workers are busy.  Counted
  // from the queue lengths, that exceeds the pool's threads for a stream's
  // i-th frame exactly when i is below the (threads + 1)-th longest queue.
  // Deeper frames are an uneven drain's tail: they fan out again onto the
  // cores the finished streams freed.  Bytes do not move: parallel_for
  // chunks write disjoint ranges either way.
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

  auto worker_main = [&]() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      while (closed.empty() && ready.empty() && remaining > 0) cv.wait(lk);
      if (remaining <= 0) {
        cv.notify_all();
        return;
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
        // A frame served alone keeps the inline rule above; a batch of
        // several fans out, as its workers may be parked, not busy.
        std::optional<InlineKernelScope> own_core;
        if (nb == 1 &&
            result.streams[static_cast<std::size_t>(batch[0].sid)]
                    .frames.size() < inline_depth)
          own_core.emplace();
        Timer batch_timer;
        AdaScalePipeline::serve_backbone(frames.data(), nb);
        const double share_ms = batch_timer.elapsed_ms() / nb;
        own_core.reset();
        for (Parked& p : batch) {
          StreamOutput& out = result.streams[static_cast<std::size_t>(p.sid)];
          out.busy_ms += share_ms;
          out.frames.push_back(std::move(p.frame.out));
        }
        lk.lock();
        for (const Parked& p : batch) frame_done(p.sid);
      } else {
        const int sid = ready.front();
        ready.pop_front();
        // This worker now exclusively owns stream `sid`: its queue,
        // pipeline and output slot are untouched by anyone else until it
        // is returned to the deque or parked (the mutex hand-off orders
        // the memory).
        ArrivalQueue& q = queues[static_cast<std::size_t>(sid)];
        Stream& stream = *streams_[static_cast<std::size_t>(sid)];
        StreamOutput& out = result.streams[static_cast<std::size_t>(sid)];
        lk.unlock();
        const AdmittedFrame f = q.pop();
        if (f.snippet_start) stream.pipeline->reset();
        std::optional<InlineKernelScope> own_core;
        if (out.frames.size() < inline_depth) own_core.emplace();
        Timer frame_timer;
        AdaScalePipeline::StagedFrame staged =
            stream.pipeline->stage(*f.scene);
        out.busy_ms += frame_timer.elapsed_ms();
        own_core.reset();
        const bool done = !staged.needs_backbone;  // a DFF warp frame
        if (done) out.frames.push_back(std::move(staged.out));
        lk.lock();
        if (done) {
          frame_done(sid);
        } else {
          const auto key = std::make_tuple(
              static_cast<const ModelPool*>(stream.pipeline->pool()),
              staged.image.h(), staged.image.w());
          auto it = open.try_emplace(key).first;
          it->second.push_back(Parked{sid, park_seq++, std::move(staged)});
          ++parked;
          if (static_cast<int>(it->second.size()) >= max_batch)
            close_bucket(it);
        }
      }
      close_if_all_parked();
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
  return result;
}

MultiStreamResult MultiStreamRunner::run_table(
    const std::vector<const Snippet*>& jobs, const StreamTableConfig& cfg) {
  return drain(jobs, cfg, 1);
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
  MultiStreamResult result = drain(jobs, StreamTableConfig{}, cfg.max_batch);
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
  const std::size_t n = streams_.size();

  TimedRunResult result;
  result.stream_stats.resize(n);
  const double t_begin = clock->now_ms();

  std::vector<ArrivalQueue> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    queues.emplace_back(cfg.admission, clock);

  std::vector<std::size_t> next(n, 0);   // next undelivered schedule index
  std::vector<long> offered_seq(n, 0);   // mirrors the queue's seq numbering
  // Policy-switch bookkeeping: the pre-degradation policies to restore.
  std::vector<ExecutionPolicy> saved_det(n), saved_reg(n);
  bool policies_switched = false;

  auto record_drop = [&](int stream, long seq, double arrival_ms,
                         DropReason reason, DegradeLevel level) {
    TimedFrameRecord r;
    r.stream = stream;
    r.seq = seq;
    r.arrival_ms = arrival_ms;
    r.start_ms = clock->now_ms();
    r.finish_ms = r.start_ms;
    r.dropped = true;
    r.drop_reason = reason;
    r.level = level;
    result.frames.push_back(std::move(r));
  };

  std::size_t rr = 0;  // round-robin service pointer
  for (;;) {
    const double now = clock->now_ms();
    const DegradeLevel level =
        controller != nullptr ? controller->level() : DegradeLevel::kNormal;

    // 1. Deliver every arrival due by now.  Arrivals that landed during the
    // previous service window are delivered here with their scheduled
    // arrival_ms (not the current clock), so their queueing delay is real.
    for (std::size_t s = 0; s < n; ++s) {
      while (next[s] < schedules[s].size() &&
             schedules[s][next[s]].ms <= now) {
        const FrameArrival& a = schedules[s][next[s]];
        const long seq = offered_seq[s]++;
        if (!queues[s].offer(a.scene, a.snippet_start, a.ms))
          record_drop(static_cast<int>(s), seq, a.ms, DropReason::kQueueFull,
                      level);
        ++next[s];
      }
    }

    // 2. Termination / idle handling.
    bool any_queued = false, any_pending = false;
    double next_arrival = 0.0;
    bool have_next = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (!queues[s].empty()) any_queued = true;
      if (next[s] < schedules[s].size()) {
        any_pending = true;
        const double t = schedules[s][next[s]].ms;
        if (!have_next || t < next_arrival) next_arrival = t;
        have_next = true;
      }
    }
    if (!any_queued) {
      if (!any_pending) break;        // drained and exhausted: done
      clock->advance_to(next_arrival);  // idle: jump to the next arrival
      continue;
    }

    // 3. One controller tick per service slot: worst depth, worst slack.
    int max_depth = 0;
    double min_slack = cfg.admission.deadline_ms;
    for (std::size_t s = 0; s < n; ++s) {
      max_depth = std::max(max_depth, queues[s].depth());
      min_slack = std::min(min_slack, queues[s].oldest_slack_ms());
    }
    DegradeLevel now_level = DegradeLevel::kNormal;
    if (controller != nullptr) {
      now_level = controller->observe(max_depth, min_slack);

      // Enforce the rung: scale cap on every pipeline (0 lifts it)...
      set_scale_cap(now_level >= DegradeLevel::kScaleCap &&
                            controller->config().enable_scale_cap
                        ? controller->config().scale_cap
                        : 0);
      // ...degraded execution policies (saved once, restored on recovery)...
      if (controller->policy_switch_active() && !policies_switched) {
        for (std::size_t s = 0; s < n; ++s) {
          saved_det[s] = streams_[s]->det_policy;
          saved_reg[s] = streams_[s]->reg_policy;
          // Re-pools the stream onto the degraded-policy contexts (built on
          // first switch); safe mid-run because this event loop is the only
          // thread touching the table.
          set_stream_policy(static_cast<int>(s), cfg.degraded_detector_policy,
                            cfg.degraded_regressor_policy);
        }
        policies_switched = true;
      } else if (!controller->policy_switch_active() && policies_switched) {
        for (std::size_t s = 0; s < n; ++s)
          set_stream_policy(static_cast<int>(s), saved_det[s], saved_reg[s]);
        policies_switched = false;
      }
      // ...and deadline-aware shedding of already-expired queued frames.
      if (controller->shedding_active()) {
        for (std::size_t s = 0; s < n; ++s) {
          for (const AdmittedFrame& f : queues[s].shed_expired())
            record_drop(static_cast<int>(s), f.seq, f.arrival_ms,
                        DropReason::kDeadline, now_level);
        }
      }
    }

    // 4. Serve one frame round-robin across non-empty queues.  Shedding may
    // just have emptied everything; the loop head re-evaluates then.
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = (rr + i) % n;
      if (!queues[s].empty()) {
        pick = s;
        break;
      }
    }
    if (pick == n) continue;
    rr = pick + 1;

    Stream& stream = *streams_[pick];
    const AdmittedFrame f = queues[pick].pop();
    if (f.snippet_start) stream.pipeline->reset();

    TimedFrameRecord r;
    r.stream = static_cast<int>(pick);
    r.seq = f.seq;
    r.arrival_ms = f.arrival_ms;
    r.start_ms = clock->now_ms();
    r.level = now_level;
    if (cfg.run_inference) {
      r.output = stream.pipeline->process(*f.scene);
      r.scale_used = r.output.scale_used;
    } else {
      r.scale_used = stream.pipeline->current_scale();
      if (controller != nullptr)
        r.scale_used = controller->apply_scale(r.scale_used);
    }
    double svc = cfg.service_model
                     ? cfg.service_model(r.stream, r.seq, r.scale_used,
                                         now_level)
                     : r.output.total_ms();
    svc += cfg.faults.extra_service_ms(r.stream, r.seq);
    clock->advance(svc);
    r.finish_ms = clock->now_ms();
    r.deadline_met = r.finish_ms <= f.deadline_ms;
    result.latency.record(r.finish_ms - r.arrival_ms);
    if (!r.deadline_met) ++result.deadline_violations;
    result.frames.push_back(std::move(r));
  }

  result.makespan_ms = clock->now_ms() - t_begin;
  for (std::size_t s = 0; s < n; ++s) {
    const AdmissionStats& st = queues[s].stats();
    result.stream_stats[static_cast<std::size_t>(s)] = st;
    result.offered += st.offered;
    result.served += st.served;
    result.dropped_queue_full += st.dropped_queue_full;
    result.dropped_deadline += st.dropped_deadline;
  }
  if (controller != nullptr) {
    result.timeline = controller->timeline();
    result.final_level = controller->level();
    // A timed run must not leak degraded state into later runs.
    if (policies_switched)
      for (std::size_t s = 0; s < n; ++s)
        set_stream_policy(static_cast<int>(s), saved_det[s], saved_reg[s]);
    set_scale_cap(0);
  }
  return result;
}

}  // namespace ada
