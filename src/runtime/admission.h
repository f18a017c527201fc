// Admission control: bounded per-stream arrival queues with deadlines.
//
// Everything upstream of this file pulled work (MultiStreamRunner::run
// walks a job list as fast as the hardware allows); real serving is pushed
// work — frames *arrive*, whether or not the runner is keeping up.  An
// ArrivalQueue is the buffer between those two worlds: each frame is
// stamped with its arrival time and a relative deadline on admission, the
// queue holds at most `capacity` frames (tail-dropping beyond that — a
// bounded queue is the first, non-negotiable overload defense: an unbounded
// one converts overload into unbounded latency for every later frame), and
// the consumer reads deadline slack off the head to know how far behind it
// is running.  All timing goes through an injected Clock (util/clock.h), so
// queueing behavior is deterministic and testable without wall-clock sleeps.
//
// This file also owns the load-schedule generators (Poisson and bursty
// arrivals over snippet mixes) shared by tools/loadgen and bench_report's
// `serving_slo` section: a schedule is just precomputed (arrival time,
// frame) pairs, so generation is seeded and replayable independently of
// how fast the runner consumes it.
#pragma once

#include <vector>

#include "data/video.h"
#include "util/clock.h"
#include "util/rng.h"

namespace ada {

/// Bounded-queue + deadline knobs of one stream's admission.
struct AdmissionConfig {
  /// Maximum frames queued per stream; arrivals beyond this are dropped on
  /// admission (tail drop) and counted in dropped_queue_full.
  int capacity = 16;
  /// Relative deadline stamped on every admitted frame: the frame should
  /// finish within this many ms of arrival.  Frames served later count as
  /// deadline violations; under controller-ordered shedding, expired frames
  /// are dropped instead of served.
  double deadline_ms = 250.0;

  /// Aborts loudly on nonsensical values (zero/negative capacity or
  /// deadline) instead of silently misbehaving.
  void validate() const;
};

/// One scheduled arrival: `scene` arrives at absolute time `ms`.
struct FrameArrival {
  double ms = 0.0;
  const Scene* scene = nullptr;
  /// First frame of a new snippet: the serving pipeline resets (Algorithm 1
  /// restarts per video) before processing it.
  bool snippet_start = false;
};

/// A stream's full arrival trace, sorted by time.  Stream churn is encoded
/// in the traces themselves: a stream is live between its first and last
/// arrival and idle outside that window.
using StreamSchedule = std::vector<FrameArrival>;

/// An admitted frame waiting in (or popped from) an ArrivalQueue.
struct AdmittedFrame {
  const Scene* scene = nullptr;
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;  ///< absolute: arrival_ms + config deadline
  long seq = 0;              ///< per-stream frame index (offer order)
  bool snippet_start = false;
};

/// Per-stream admission/drop accounting.  Invariants (tested):
///   offered  == admitted + dropped_queue_full
///   admitted == served + dropped_deadline + depth()
struct AdmissionStats {
  long offered = 0;             ///< frames presented to offer()
  long admitted = 0;            ///< frames that entered the queue
  long dropped_queue_full = 0;  ///< tail-dropped on admission
  long dropped_deadline = 0;    ///< shed after admission (expired deadline)
  long served = 0;              ///< frames handed to the worker via pop()

  long dropped() const { return dropped_queue_full + dropped_deadline; }
};

/// One stream's bounded, deadline-stamped arrival queue.  Not internally
/// synchronized: MultiStreamRunner's dispatch loop offers, pops and sheds
/// only under its own lock.
class ArrivalQueue {
 public:
  /// `clock` must outlive the queue; cfg is validated loudly.
  ArrivalQueue(const AdmissionConfig& cfg, const Clock* clock);

  /// Offers one frame that arrived at `arrival_ms` (its scheduled arrival
  /// time — passed explicitly because the runner may deliver it after
  /// the clock has already advanced past it, e.g. arrivals that landed
  /// during a service window; stamping delivery time would understate
  /// queueing delay).  Returns false (and counts dropped_queue_full) when
  /// the queue is at capacity.
  bool offer(const Scene* scene, bool snippet_start, double arrival_ms);

  bool empty() const { return queue_.empty(); }
  int depth() const { return static_cast<int>(queue_.size()); }

  /// Oldest queued frame; queue must be non-empty.
  const AdmittedFrame& front() const { return queue_.front(); }

  /// Removes and returns the oldest frame, counting it served.
  AdmittedFrame pop();

  /// Drops every queued frame whose deadline has already passed (counting
  /// dropped_deadline); returns the shed frames so the runner can record
  /// them.  Called only when the overload controller has escalated to
  /// shedding.
  std::vector<AdmittedFrame> shed_expired();

  /// Deadline slack of the oldest queued frame (deadline - now): negative
  /// means the head frame is already late.  Returns +deadline when empty
  /// (an empty queue is maximally healthy).
  double oldest_slack_ms() const;

  const AdmissionStats& stats() const { return stats_; }

 private:
  AdmissionConfig cfg_;
  const Clock* clock_;
  std::vector<AdmittedFrame> queue_;  ///< FIFO; index 0 is oldest
  long next_seq_ = 0;
  AdmissionStats stats_;
};

// ---------------------------------------------------------------------------
// Load-schedule generation (shared by tools/loadgen and bench_report).
// ---------------------------------------------------------------------------

/// Deterministic round-robin fan-out of a job list into per-stream arrival
/// schedules: job j goes to stream j % num_streams (the MultiStreamRunner
/// assignment contract), each stream's frames arrive in job order at
/// start_ms + k * frame_interval_ms (per-stream frame counter k), and the
/// first frame of every snippet carries snippet_start.  With the default
/// zero interval everything is due immediately — the backlog-drain schedule
/// the stream-state table (run_table) serves; a positive interval makes a
/// fixed-rate trace for run_timed.
std::vector<StreamSchedule> schedules_from_jobs(
    const std::vector<const Snippet*>& jobs, int num_streams,
    double frame_interval_ms = 0.0, double start_ms = 0.0);

/// Flattens `jobs` into per-frame arrivals with exponential (Poisson
/// process) inter-arrival times at `rate_hz`, starting at `start_ms`.
/// Deterministic given the Rng.
StreamSchedule poisson_schedule(const std::vector<const Snippet*>& jobs,
                                double rate_hz, double start_ms, Rng* rng);

/// Bursty arrivals: a Poisson base rate, with windows of `burst_len_ms`
/// every `burst_period_ms` during which the rate jumps to `burst_rate_hz`
/// (the overload phases the controller must survive).  Deterministic given
/// the Rng.
StreamSchedule bursty_schedule(const std::vector<const Snippet*>& jobs,
                               double base_rate_hz, double burst_rate_hz,
                               double burst_period_ms, double burst_len_ms,
                               double start_ms, Rng* rng);

}  // namespace ada
