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
// peak instead of growing through warm-up.  tools/plan_dump prints them
// (per-layer kernel, workspace bytes, MACs).
//
// Kernel determinism: a step's kernel is the one the layer's eager forward
// runs (resolve_kernel()): kInt8 wherever the layer is quantized, neither
// training nor calibrating, and its policy resolves to the int8 backend;
// the policy's fp32 kernel otherwise.  It is a function of the layer's
// policy and quantization state only, never of timing, shape or batch
// size.  Batched and per-image plans, master models and weight-aliased
// clones, and separate processes therefore run the same kernel for the
// same layer; and since int8 bytes do not depend on the dispatched ISA
// (tensor/qgemm.h), neither does a quantized plan's output.
//
// Contract: every leaf layer contributes exactly ONE PlanStep, in forward
// execution order; containers contribute their children's steps.  A planned
// forward walks the same order with a PlanCursor, so step k always belongs
// to the k-th leaf layer executed.
#pragma once

#include <cassert>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace ada {

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

  // servebench is the only reader of these three: no plan step is timed
  // or raced, so they are constants that can be neither set nor stored.
  static constexpr bool autotuned = false;
  static constexpr double tuned_int8_ns = 0.0;
  static constexpr double tuned_fp32_ns = 0.0;
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

/// A no-op for servebench, its only caller: plans keep no process-global
/// state to clear.
inline void clear_autotune_cache() {}

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
