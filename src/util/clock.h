// Injectable time source for the serving runtime.
//
// Every queueing decision in the overload-resilience layer — admission
// timestamps, deadline slack, controller hysteresis —
// reads time through this interface instead of a wall clock.  Production
// code injects WallClock (or nothing: components default to it); tests and
// the virtual-time load generator inject ManualClock and advance it
// explicitly, so timeout/shedding behavior is exactly reproducible with no
// sleeps and no dependence on machine speed (tests/overload_test.cpp runs
// thousands of simulated seconds in milliseconds of real time).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>

namespace ada {

/// Monotonic time source, milliseconds since an arbitrary epoch.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double now_ms() const = 0;
};

/// Real monotonic time (epoch = construction).
class WallClock : public Clock {
 public:
  WallClock() : start_(Impl::now()) {}
  double now_ms() const override {
    return std::chrono::duration<double, std::milli>(Impl::now() - start_)
        .count();
  }

 private:
  using Impl = std::chrono::steady_clock;
  Impl::time_point start_;
};

/// Hand-driven time for tests and virtual-time simulation.  Monotonic by
/// construction: advance() ignores negative steps and advance_to() never
/// moves backwards.  The stored time is atomic, so other threads may read
/// it while one thread drives it — a table drain's arrival queues read one
/// clock from every worker (only one thread may *write*; relaxed ordering
/// suffices because the readers' own mutex hand-offs order the rest).
class ManualClock : public Clock {
 public:
  explicit ManualClock(double start_ms = 0.0) : now_(start_ms) {}
  double now_ms() const override {
    return now_.load(std::memory_order_relaxed);
  }
  /// Moves time forward by `dt_ms` (negative steps are ignored).
  void advance(double dt_ms) {
    now_.store(now_.load(std::memory_order_relaxed) + std::max(0.0, dt_ms),
               std::memory_order_relaxed);
  }
  /// Jumps to an absolute time, never backwards.
  void advance_to(double t_ms) {
    now_.store(std::max(now_.load(std::memory_order_relaxed), t_ms),
               std::memory_order_relaxed);
  }

 private:
  std::atomic<double> now_;
};

}  // namespace ada
