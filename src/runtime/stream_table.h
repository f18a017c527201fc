// Stream-state table: many streams, few models.
//
// A thread-per-stream runner couples two things that scale differently —
// per-stream STATE (a StreamContext plus an arrival queue: kilobytes) and
// per-stream COMPUTE (a detector/regressor pair: megabytes, and a thread).
// At 1k+ streams the coupling is fatal: 1k model clones do not fit in
// memory and 1k threads thrash the scheduler, even though at any instant
// only a handful of frames are actually being served.
//
// This file is the decoupling.  A ModelTable owns ONE master copy of the
// detector/regressor weights (deep-cloned from the prototypes once) and
// hands out small ContextPools of weight-ALIASED serving contexts
// (clone_detector_shared / clone_regressor_shared): each context has its
// own activation scratch, plan cursor state, and INT8 tables, but its
// Params point at the master's storage, so resident weight bytes are
// O(1 master copy), not O(streams) and not even O(contexts).  Pools are
// keyed by (detector policy, regressor policy), so heterogeneous
// per-stream policies coexist — stream policy selects a pool, never a
// private model.
//
// AdaScalePipeline reaches the pooled contexts through the ModelPool
// interface (adascale/pipeline.h): each half of a frame leases a context
// at its first model touch and returns it when the half ends, so 1000
// streams can be served, in any interleaving, by e.g. 4 resident
// contexts.  WHICH context serves a frame cannot affect the bits —
// contexts are bit-identical by construction — which is what keeps the
// table runner memcmp-equal to the serial runner
// (tests/stream_table_test.cpp).
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "adascale/pipeline.h"

namespace ada {

/// Knobs of a stream-state-table run (MultiStreamRunner::run_table).
struct StreamTableConfig {
  /// Worker threads draining the table.  0 = auto:
  /// min(num_streams, max(1, hardware_concurrency)).  1 reproduces serial
  /// execution exactly (and is what run_serial uses).  While more workers
  /// than the kernel pool has threads can be busy (at most one per stream
  /// still holding frames), each worker runs its frame's kernels inline
  /// instead of fanning them out to the pool.
  int workers = 0;

  /// Aborts loudly on nonsensical values (negative workers).
  void validate() const;
};

/// A fixed-size pool of weight-aliased detector/regressor contexts, all
/// sharing the master weights and pinned to one (detector, regressor)
/// policy pair.  acquire() blocks until a context is free; release() wakes
/// one waiter.  Free contexts are handed out LIFO (warmest scratch first).
class ContextPool : public ModelPool {
 public:
  /// Builds `contexts` weight-aliased clones of the masters and pins the
  /// given policies on them.  The masters are only read during
  /// construction and must outlive the pool.
  ContextPool(Detector* master_detector, ScaleRegressor* master_regressor,
              const ExecutionPolicy& detector_policy,
              const ExecutionPolicy& regressor_policy, int contexts);
  ~ContextPool() override;

  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

  Lease acquire() override;
  void release(const Lease& lease) override;

  int size() const { return static_cast<int>(slots_.size()); }

  /// Direct slot access for tests (aliasing assertions).  The pool must be
  /// quiescent — no outstanding leases on other threads.
  Detector* detector_at(int i) { return slots_.at(i).detector.get(); }
  ScaleRegressor* regressor_at(int i) { return slots_.at(i).regressor.get(); }

 private:
  struct Slot {
    std::unique_ptr<Detector> detector;
    std::unique_ptr<ScaleRegressor> regressor;
  };

  std::vector<Slot> slots_;
  std::vector<int> free_;  ///< LIFO stack of free slot indices
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The shared-weights side of the stream-state table: one master weight
/// copy plus lazily-built per-policy-pair context pools that alias it.
class ModelTable {
 public:
  /// Deep-clones the prototypes ONCE (the only full weight copy this table
  /// ever makes); every pool context aliases these masters.
  /// `contexts_per_pool` bounds concurrent in-flight frames per policy
  /// pair; <= 0 auto-sizes to max(1, hardware_concurrency).
  ModelTable(Detector* prototype_detector,
             ScaleRegressor* prototype_regressor, int contexts_per_pool);
  ~ModelTable();

  ModelTable(const ModelTable&) = delete;
  ModelTable& operator=(const ModelTable&) = delete;

  /// The pool serving this policy pair, built on first request.  Keyed by
  /// the RAW (possibly kDefault) backends, so env-following streams keep
  /// following the env while pinned streams get pinned pools.  NOT
  /// thread-safe: pools are created at setup time (stream construction /
  /// set_stream_policy), before workers run.
  ContextPool* pool_for(const ExecutionPolicy& detector_policy,
                        const ExecutionPolicy& regressor_policy);

  /// The master copies (prototype-equivalent; the pipelines' constructor
  /// models — untouched while pools serve).
  Detector* master_detector() { return master_det_.get(); }
  ScaleRegressor* master_regressor() { return master_reg_.get(); }

  /// Bytes of UNIQUE fp32 parameter storage (values + grads) reachable
  /// from the master and every pool context — counting each aliased Param
  /// once.  With weight sharing this stays at one model copy no matter how
  /// many pools or contexts exist; the 1k-stream test pins that down.
  std::size_t resident_weight_bytes() const;

  /// What `num_streams` dedicated clones would hold: num_streams times the
  /// master's parameter bytes.  The baseline resident_weight_bytes is
  /// measured against (bench_report's stream_table section).
  std::size_t cloned_weight_bytes(int num_streams) const;

  /// Number of pools built so far (one per distinct policy pair in use).
  std::size_t pool_count() const { return pools_.size(); }

 private:
  std::unique_ptr<Detector> master_det_;
  std::unique_ptr<ScaleRegressor> master_reg_;
  int contexts_per_pool_;
  /// Ordered map (R5: deterministic iteration) keyed by raw backend ints.
  std::map<std::pair<int, int>, std::unique_ptr<ContextPool>> pools_;
};

}  // namespace ada
