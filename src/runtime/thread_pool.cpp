#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace ada {

namespace {

// Set while a thread is executing a parallel_for chunk or holds an
// InlineKernelScope; nested parallel regions run inline to avoid
// self-deadlock and unbounded task recursion.
thread_local bool t_in_parallel_region = false;

}  // namespace

InlineKernelScope::InlineKernelScope() : saved_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

InlineKernelScope::~InlineKernelScope() { t_in_parallel_region = saved_; }

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 0);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(grain, 1);
  if (n <= grain || workers_.empty() || t_in_parallel_region) {
    fn(0, n);
    return;
  }

  // Shared chunk cursor.  Chunk boundaries are fixed by (n, grain) alone, so
  // the work decomposition — and with disjoint writes, the result — is
  // independent of thread scheduling.
  struct State {
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> done{0};
    std::int64_t n = 0;
    std::int64_t grain = 0;
    std::int64_t num_chunks = 0;
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->grain = grain;
  state->num_chunks = (n + grain - 1) / grain;
  state->fn = &fn;

  auto run_chunks = [](const std::shared_ptr<State>& s) {
    const InlineKernelScope in_region;
    for (;;) {
      const std::int64_t chunk = s->next.fetch_add(1);
      if (chunk >= s->num_chunks) break;
      const std::int64_t begin = chunk * s->grain;
      const std::int64_t end = std::min(begin + s->grain, s->n);
      (*s->fn)(begin, end);
      if (s->done.fetch_add(1) + 1 == s->num_chunks) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  // One helper per worker is enough: each helper loops until the range is
  // drained.  Helpers hold a shared_ptr so a late-starting helper finding no
  // chunks left is still safe after the caller returns.
  const int helpers = static_cast<int>(
      std::min<std::int64_t>(num_threads(), state->num_chunks - 1));
  helpers_submitted_.fetch_add(static_cast<std::uint64_t>(helpers),
                               std::memory_order_relaxed);
  for (int i = 0; i < helpers; ++i)
    submit([state, run_chunks] { run_chunks(state); });

  run_chunks(state);

  // The caller ran out of chunks; wait for in-flight helper chunks.
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load() == state->num_chunks;
  });
}

ThreadPool* global_pool() {
  static ThreadPool* pool = [] {
    const int n = parse_thread_count(
        std::getenv("ADASCALE_THREADS"),
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    // n workers serve n-way parallel_for calls: the caller participates, so
    // n-1 helpers saturate n cores; more would only add contention.
    return new ThreadPool(std::max(n - 1, 0));
  }();
  return pool;
}

int parse_thread_count(const char* env, int fallback) {
  if (env == nullptr) return fallback;
  // Digits only: strtol alone would skip leading blanks, take a sign and
  // stop at trailing junk, reading "4x" as 4.
  const std::size_t len = std::strlen(env);
  if (len > 0 && std::strspn(env, "0123456789") == len) {
    errno = 0;
    const long v = std::strtol(env, nullptr, 10);
    if (errno == 0 && v >= 1 && v <= INT_MAX) return static_cast<int>(v);
  }
  // The serving regime depends on this count (run_table's inline rule), so
  // a typo must not silently fall back.
  std::fprintf(stderr,
               "ADASCALE_THREADS=%s is not a positive integer; using %d "
               "threads\n",
               env, fallback);
  return fallback;
}

void parallel_for(std::int64_t n, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  global_pool()->parallel_for(n, grain, fn);
}

}  // namespace ada
