#include "runtime/exec_plan.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>

#include "runtime/thread_pool.h"
#include "util/clock.h"

namespace ada {

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::kGemmReference: return "reference";
    case KernelKind::kGemmPacked: return "packed";
    case KernelKind::kInt8: return "int8";
    case KernelKind::kNone: break;
  }
  return "-";
}

long long ExecutionPlan::total_macs() const {
  long long total = 0;
  for (const PlanStep& s : steps) total += s.macs;
  return total;
}

void ExecutionPlan::finalize() {
  arena_floats = 0;
  for (const PlanStep& s : steps)
    arena_floats = std::max(arena_floats, s.workspace_floats);
}

namespace {
std::string shape_str(const PlanShape& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%dx%dx%dx%d", s.n, s.c, s.h, s.w);
  return buf;
}

// ------------------------------------------------------------- autotuner

std::mutex g_tune_mu;
std::map<std::string, AutotuneChoice>& tune_cache() {
  static std::map<std::string, AutotuneChoice> cache;
  return cache;
}

std::atomic<AutotuneBenchFn> g_bench{nullptr};

double default_autotune_bench(const std::function<void()>& run) {
  return autotune_bench_windows(run, WallClock{});
}

}  // namespace

double autotune_bench_windows(const std::function<void()>& run,
                              const Clock& clock) {
  constexpr double kWindowMs = 0.25;
  constexpr double kBudgetMs = 2.0;
  constexpr int kMinWindows = 3;
  run();  // warmup: first-touch pages, kernel-dispatch statics
  const double start_ms = clock.now_ms();
  double best_ns = std::numeric_limits<double>::infinity();
  for (int windows = 1;; ++windows) {
    const double window_start_ms = clock.now_ms();
    int reps = 0;
    double window_ms = 0.0;
    do {
      run();
      ++reps;
      window_ms = clock.now_ms() - window_start_ms;
    } while (window_ms < kWindowMs);
    best_ns = std::min(best_ns, window_ms * 1e6 / static_cast<double>(reps));
    if (windows >= kMinWindows && clock.now_ms() - start_ms >= kBudgetMs)
      return best_ns;
  }
}

void set_autotune_bench(AutotuneBenchFn fn) {
  g_bench.store(fn, std::memory_order_relaxed);
}

const AutotuneChoice& autotune_choice(const std::string& key,
                                      const std::function<void()>& run_int8,
                                      const std::function<void()>& run_fp32) {
  // The lock covers the measurement too: concurrent first-builds of the
  // same geometry must not race each other's timing (and must agree on
  // one recorded winner).  Plan builds are setup-path, never steady-state.
  std::lock_guard<std::mutex> lk(g_tune_mu);
  auto& cache = tune_cache();
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  AutotuneBenchFn bench = g_bench.load(std::memory_order_relaxed);
  if (bench == nullptr) bench = default_autotune_bench;
  AutotuneChoice c;
  {
    InlineKernelScope serving_width;
    c.int8_ns = bench(run_int8);
    c.fp32_ns = bench(run_fp32);
  }
  c.kernel =
      c.int8_ns <= c.fp32_ns ? KernelKind::kInt8 : KernelKind::kGemmPacked;
  return cache.emplace(key, c).first->second;
}

void clear_autotune_cache() {
  std::lock_guard<std::mutex> lk(g_tune_mu);
  tune_cache().clear();
}

std::size_t autotune_cache_size() {
  std::lock_guard<std::mutex> lk(g_tune_mu);
  return tune_cache().size();
}

std::string ExecutionPlan::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "plan input=%s policy=%s steps=%zu arena=%.1f KiB "
                "macs=%.1fM\n",
                shape_str(input).c_str(), policy.c_str(), steps.size(),
                static_cast<double>(arena_floats) * sizeof(float) / 1024.0,
                static_cast<double>(total_macs()) * 1e-6);
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), "  %-3s %-12s %-10s %-16s %-16s %12s %10s\n",
                "#", "layer", "kernel", "in", "out", "workspace_B", "macs");
  out += buf;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    std::snprintf(buf, sizeof(buf),
                  "  %-3zu %-12s %-10s %-16s %-16s %12zu %10lld", i,
                  s.layer.c_str(), kernel_kind_name(s.kernel),
                  shape_str(s.in).c_str(), shape_str(s.out).c_str(),
                  s.workspace_floats * sizeof(float), s.macs);
    out += buf;
    if (s.autotuned) {
      // The measured race this step's kernel came out of (n=1 probe).
      std::snprintf(buf, sizeof(buf),
                    "  tuned int8=%.3fms fp32=%.3fms (int8/fp32 %.2fx)",
                    s.tuned_int8_ns * 1e-6, s.tuned_fp32_ns * 1e-6,
                    s.tuned_int8_ns > 0.0 ? s.tuned_fp32_ns / s.tuned_int8_ns
                                          : 0.0);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace ada
