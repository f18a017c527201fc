// Ahead-of-time inference plans.
//
// An ExecutionPlan captures, per (model, input shape, resolved backend),
// everything the eager forward path used to re-derive on every call: each
// layer's output geometry and im2col column shape, the kernel chosen for it
// (reference / packed / int8 — resolved once from the model's
// ExecutionPolicy and quantization state), its scratch-arena workspace
// demand, and its MAC count.  Models build plans lazily the first time a
// shape is served, cache them, and invalidate the cache whenever kernel
// choice could change (quantize(), training-mode re-entry, policy change) —
// so steady-state forwards do no kernel resolution and no quant-state
// branching, and the scratch arena can be pre-sized to the plan's exact
// peak instead of growing through warm-up.
//
// Plans are also the inspection/auto-tuning seam: tools/plan_dump prints
// them (per-layer kernel, workspace bytes, MACs), and the per-layer
// autotuner below writes the *measured* winner into each step — when a
// quantized layer plans at kInt8, plan construction races the int8 kernel
// against packed fp32 on that exact geometry and falls back per layer
// where int8 is slower (the tiny head GEMMs), so quantization is a speed
// lever only where it actually is one.
//
// Autotune determinism: measured choices are memoized in a PROCESS-GLOBAL
// cache keyed by layer geometry with the batch size excluded, probed once
// at n=1 (GEMM cost is shape-, not value-dependent).  Every plan in the
// process — batched or per-image, master model or weight-aliased clone or
// independent instance with the same architecture — therefore runs the
// same kernel for the same layer geometry, which keeps the
// batched-vs-serial and master-vs-clone bit-identity contracts intact.
// Within one process, outputs never depend on which plan got built first.
//
// Contract: every leaf layer contributes exactly ONE PlanStep, in forward
// execution order; containers contribute their children's steps.  A planned
// forward walks the same order with a PlanCursor, so step k always belongs
// to the k-th leaf layer executed.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace ada {

class Clock;

/// Which kernel a planned layer step runs.  kNone marks layers with no
/// kernel choice (pooling, activation, reshape).
enum class KernelKind { kNone, kGemmReference, kGemmPacked, kInt8 };

/// Human-readable kernel name: "-" | "reference" | "packed" | "int8".
const char* kernel_kind_name(KernelKind k);

/// A tensor shape flowing through plan construction (NCHW).
struct PlanShape {
  int n = 1, c = 0, h = 0, w = 0;
};

/// One leaf layer's precomputed step: what runs, on what geometry, with how
/// much scratch.
struct PlanStep {
  std::string layer;                     ///< Layer::name() of the owner
  KernelKind kernel = KernelKind::kNone; ///< resolved kernel choice
  PlanShape in;                          ///< input shape
  PlanShape out;                         ///< output shape
  std::size_t workspace_floats = 0;      ///< scratch-arena peak of this step
  long long macs = 0;                    ///< multiply-accumulates

  // Filled when `kernel` came out of the measured int8-vs-fp32 race (the
  // layer resolved to kInt8 and the autotuner picked the winner, possibly
  // falling this step back to kGemmPacked).  Timings are ns per forward of
  // the n=1 probe; plan_dump / bench_report / calibrate report them.
  bool autotuned = false;
  double tuned_int8_ns = 0.0;
  double tuned_fp32_ns = 0.0;
};

/// The full per-(model, shape, backend) plan; see file comment.
struct ExecutionPlan {
  PlanShape input;           ///< the planned model input shape
  std::string policy;        ///< resolved backend name at build time
  std::vector<PlanStep> steps;
  std::size_t arena_floats = 0;  ///< peak scratch demand across all steps

  /// Total multiply-accumulates of one planned forward.
  long long total_macs() const;

  /// Computes arena_floats from the steps (max — steps run sequentially,
  /// each releasing its scratch frame before the next).  Call once after
  /// the last step is appended.
  void finalize();

  /// Pretty-printed table (per-layer kernel, shapes, workspace bytes,
  /// MACs) — what tools/plan_dump shows.
  std::string to_string() const;
};

/// A model's lazily-built plan store, keyed by (n, h, w, resolved backend).
/// shared_ptr-owned by each model so weight-aliased clones
/// (clone_detector_shared / clone_regressor_shared) share ONE cache: a plan
/// built by any pooled serving context is reused by every other context of
/// the same policy, and different-policy sharers coexist because the
/// resolved backend is part of the key.  The mutex makes concurrent lookups
/// and first-use builds safe; returned ExecutionPlan references stay valid
/// outside the lock because std::map never relocates nodes on insert, and
/// clear() only happens at setup time (quantize / policy change / training
/// re-entry), never while serving.
struct PlanCache {
  mutable std::mutex mu;
  std::map<std::tuple<int, int, int, int>, ExecutionPlan> plans;

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu);
    return plans.size();
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu);
    plans.clear();
  }
};

// ------------------------------------------------------------- autotuner

/// Outcome of one measured int8-vs-fp32 kernel race for a layer geometry.
struct AutotuneChoice {
  KernelKind kernel = KernelKind::kInt8;  ///< the faster candidate
  double int8_ns = 0.0;                   ///< measured int8 ns per forward
  double fp32_ns = 0.0;                   ///< measured packed fp32 ns
};

/// Bench seam: times one already-constructed candidate closure and
/// returns ns per run.  The default is autotune_bench_windows on a
/// WallClock.  Tests inject a deterministic fake so fallback decisions are
/// reproducible on any machine.
using AutotuneBenchFn = double (*)(const std::function<void()>& run);

/// The default race bench, reading `clock`: one warmup run, then windows
/// of back-to-back runs, each at least 0.25 ms long, until at least three
/// windows and 2 ms in all have passed.  Returns the fastest window's ns
/// per run.  A host spike inflates only the window it lands in, so it
/// cannot hand a layer to a kernel that is steadily slower, as it can the
/// mean of one window.  `run` must advance `clock` (a ManualClock moves
/// only when told to).
double autotune_bench_windows(const std::function<void()>& run,
                              const Clock& clock);

/// Installs a bench override (nullptr restores the default).  Setup-time
/// only: concurrent plan builds read it racily but benignly.
void set_autotune_bench(AutotuneBenchFn fn);

/// The memoized measured winner for `key` (layer type + geometry, batch
/// size EXCLUDED — see file comment).  On a cache miss, times run_int8
/// then run_fp32 under the bench seam and records the faster kernel; on a
/// hit, the closures are not invoked.  The race runs under an
/// InlineKernelScope (runtime/thread_pool.h): every kernel runs on the
/// calling thread, as table serving runs them once its workers cover the
/// cores, so the race times the width the kernels are served at.
/// Thread-safe; the returned reference stays valid for the process
/// lifetime (map nodes never relocate and clear_autotune_cache is a
/// test/setup-time operation).
const AutotuneChoice& autotune_choice(const std::string& key,
                                      const std::function<void()>& run_int8,
                                      const std::function<void()>& run_fp32);

/// Drops all memoized choices so the next plan build re-measures.  Tests
/// and benches only — serving processes keep the cache for life, which is
/// what makes every plan in the process agree on kernel choices.
void clear_autotune_cache();

/// Number of memoized (layer, geometry) choices.
std::size_t autotune_cache_size();

/// Walking cursor over a plan during a planned forward.  Each leaf layer
/// takes exactly one step; the order-by-construction contract makes this a
/// bare index.  A cursor may start past the first step, to run the tail of
/// a plan on an intermediate tensor (Detector's heads on external
/// features).
class PlanCursor {
 public:
  explicit PlanCursor(const ExecutionPlan* plan, std::size_t first = 0)
      : plan_(plan), next_(first) {}

  /// The next step, advancing the cursor.  Walking past the end means the
  /// plan was built for a different layer stack — a programming error.
  const PlanStep& take() {
    assert(next_ < plan_->steps.size() && "plan/stack mismatch");
    return plan_->steps[next_++];
  }

 private:
  const ExecutionPlan* plan_;
  std::size_t next_ = 0;
};

}  // namespace ada
