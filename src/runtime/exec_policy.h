// Per-model execution policy: which kernel family a model's layers run.
//
// Before this existed, backend/precision selection was a process-global
// (ADASCALE_GEMM via set_gemm_backend) consulted by every layer on every
// forward — shared mutable state under concurrent streams, and per-model
// precision (int8 backbone + fp32 regressor) was impossible.  An
// ExecutionPolicy is owned per model (Detector, ScaleRegressor), propagated
// to every layer it contains, and inherited by clones, so the serving
// contexts of MultiStreamRunner's pools each resolve kernels from
// immutable per-model state instead of racing on a global.
//
// Resolution order: explicit (pinned) policy > env default.  A default-
// constructed policy is *unpinned* — it defers to the process-wide default
// (set once from ADASCALE_GEMM, overridable via set_gemm_backend for
// tests/benches) at resolution time, which preserves the legacy env-switch
// behavior for every model that never sets a policy.  A pinned policy
// ignores the global entirely; serving pins policies so concurrent streams
// share no mutable backend state.
#pragma once

#include "tensor/gemm.h"

namespace ada {

/// Per-model backend/precision selection (see file comment for the
/// resolution-order contract).  Cheap value type: models store it, layers
/// store a copy, clones inherit it.
struct ExecutionPolicy {
  /// Requested backend.  kDefault defers to the process-wide env default
  /// at resolution time; anything else is pinned.
  GemmBackend backend = GemmBackend::kDefault;

  /// Resolves to a concrete backend: the pinned value, or the env default
  /// when unpinned.  Never returns kDefault.
  GemmBackend resolve() const;

  /// True when this policy pins a concrete backend (ignores the env).
  bool pinned() const { return backend != GemmBackend::kDefault; }

  /// Name of the *resolved* backend: "packed" | "reference" | "int8".
  const char* name() const;

  /// Unpinned policy: follows the process-wide default (the constructor
  /// default; spelled out for readable call sites).
  static ExecutionPolicy env_default() { return {}; }
  /// Pinned fp32 packed-SIMD policy.
  static ExecutionPolicy fp32() { return {GemmBackend::kPacked}; }
  /// Pinned fp32 reference (scalar oracle) policy.
  static ExecutionPolicy reference() { return {GemmBackend::kReference}; }
  /// Pinned INT8 policy: quantized layers run the integer kernel,
  /// everything else falls back to packed fp32.
  static ExecutionPolicy int8() { return {GemmBackend::kInt8}; }
};

}  // namespace ada
