// Minimal fixed-size thread pool + deterministic parallel_for.
//
// Design constraints, in order:
//   1. Determinism: parallel_for partitions the index range into fixed chunks
//      with disjoint writes, so results are bit-identical to the serial loop
//      regardless of which thread runs which chunk.  Every kernel this repo
//      parallelizes (conv tiles, renderer rows, elementwise ranges, per-class
//      NMS groups) satisfies the disjoint-write contract.
//   2. No deadlock under nesting: the calling thread always participates and
//      can finish the whole range alone if every worker is busy; nested
//      parallel_for calls from inside a chunk run serially inline.
//   3. Zero overhead when it does not help: ranges at or below `grain`, or a
//      pool with no workers (single-core machines, ADASCALE_THREADS=1), run
//      the loop inline with no allocation or synchronization.
//   4. Callers that already own a core keep their kernels: a thread holding
//      an InlineKernelScope runs every parallel_for inline, exactly like a
//      nested call.  MultiStreamRunner::run_table's workers hold one for a
//      frame while the workers that can be busy outnumber the pool's
//      threads, so its kernels never fan out onto cores the other workers
//      are using.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ada {

/// Fixed-size worker pool.  Tasks are plain closures; submission is
/// thread-safe.  Workers live for the pool's lifetime.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers.  0 means "no workers": every parallel_for
  /// runs inline on the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (not counting callers that participate).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for any idle worker.
  void submit(std::function<void()> task);

  /// Runs fn(begin, end) over [0, n) split into chunks of at most `grain`
  /// indices.  The caller participates; idle workers help.  fn must only
  /// write state owned by its own index range.  Returns when every chunk has
  /// finished.  Nested calls (from inside fn) and calls from a thread
  /// holding an InlineKernelScope run fn(0, n) inline.
  void parallel_for(std::int64_t n, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Helper tasks parallel_for has submitted over the pool's lifetime (one
  /// per worker it asked to join a range; inline calls add nothing).
  std::uint64_t helpers_submitted() const {
    return helpers_submitted_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> helpers_submitted_{0};
};

/// Marks the calling thread as already inside a parallel region for the
/// guard's lifetime: every parallel_for it makes, on any pool, runs fn(0, n)
/// inline.  Restores the previous mark on exit, so guards nest.
class InlineKernelScope {
 public:
  InlineKernelScope();
  ~InlineKernelScope();

  InlineKernelScope(const InlineKernelScope&) = delete;
  InlineKernelScope& operator=(const InlineKernelScope&) = delete;
  InlineKernelScope(InlineKernelScope&&) = delete;
  InlineKernelScope& operator=(InlineKernelScope&&) = delete;

 private:
  bool saved_;
};

/// The process-wide pool shared by all parallel kernels.  Built on first use
/// with N - 1 threads, N = parse_thread_count(getenv("ADASCALE_THREADS"),
/// hardware_concurrency()): each parallel_for caller is the Nth.  Never
/// returns null.
ThreadPool* global_pool();

/// Reads an ADASCALE_THREADS value.  Null (unset) gives `fallback`; a
/// whole-string positive integer gives that integer.  Anything else ("0",
/// "-2", "4x", "four", "", out of int range) prints a stderr warning naming
/// the value and the count used, then gives `fallback`.
int parse_thread_count(const char* env, int fallback);

/// Convenience wrapper: global_pool()->parallel_for(...).
void parallel_for(std::int64_t n, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace ada
