// Multi-stream serving throughput: N independent AdaScale pipelines driven
// concurrently (runtime/multi_stream.h) versus one after another, plus the
// cross-stream *batched* mode where same-scale frames share one backbone
// forward (MultiStreamRunner::run_batched: the same drain loop parks
// rendered frames in same-scale buckets).
//
// This is the production-serving scenario the ROADMAP targets: many users'
// video streams arriving at once.  Algorithm 1 is sequential within a stream
// (frame t picks frame t+1's scale), so cross-stream concurrency is the
// scaling axis.  Expected shape: aggregate FPS grows near-linearly with
// streams until the core count saturates; on a single core all unbatched
// rows should sit near 1.0x.  The batched rows then stack GEMM-call
// amortization on top: one sgemm per layer per *batch* instead of per
// frame.  `MeanBatch` reports how full the batches actually ran.
//
// Usage: bench_multi_stream [max_streams] [snippets]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "experiments/harness.h"
#include "runtime/multi_stream.h"
#include "util/table.h"

using namespace ada;

int main(int argc, char** argv) {
  // Default the kernel-level pool to serial (no overwrite: an explicit
  // ADASCALE_THREADS still wins).  With the pool enabled the n=1 baseline
  // already saturates every core through the parallelized kernels, which
  // would make the Speedup column measure nothing; this bench isolates
  // stream-level scaling.
  setenv("ADASCALE_THREADS", "1", /*overwrite=*/0);

  const int max_streams = std::max(argc > 1 ? std::atoi(argv[1]) : 8, 1);
  const int num_snippets = std::max(argc > 2 ? std::atoi(argv[2]) : 16, 1);

  std::printf("=== Multi-stream serving throughput ===\n");
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  HarnessSizes sizes;
  sizes.train_snippets = 8;
  sizes.val_snippets = 3;
  Harness h = make_vid_harness(default_cache_dir(), sizes);
  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg = h.regressor(ScaleSet::train_default(),
                                    h.default_regressor_config());

  // A fixed pool of synthetic "user" snippets, reused for every row so all
  // configurations process identical work.
  const Dataset stream_ds =
      h.dataset().sibling(num_snippets, 0, h.dataset().seed() ^ 0x57AEA7ULL);
  std::vector<const Snippet*> jobs;
  for (const Snippet& s : stream_ds.train_snippets()) jobs.push_back(&s);

  TextTable table(
      {"Mode", "Wall(ms)", "Agg FPS", "Speedup", "MeanBatch", "Frames"});
  double serial_fps = 0.0;
  double unbatched_max_fps = 0.0;
  for (int n = 1; n <= max_streams; n *= 2) {
    MultiStreamRunner runner(det, reg, &h.renderer(), h.dataset().scale_policy(),
                             ScaleSet::reg_default(), n);
    // Serial reference measured once, with the single-stream runner.
    if (n == 1) {
      MultiStreamResult s = runner.run_serial(jobs);
      serial_fps = s.aggregate_fps;
      table.add_row({"serial", fmt(s.wall_ms, 0), fmt(s.aggregate_fps, 1),
                     "1.00x", "-", std::to_string(s.total_frames)});
    }
    MultiStreamResult r = runner.run(jobs);
    unbatched_max_fps = std::max(unbatched_max_fps, r.aggregate_fps);
    table.add_row({std::to_string(n) + " streams", fmt(r.wall_ms, 0),
                   fmt(r.aggregate_fps, 1),
                   fmt(r.aggregate_fps / serial_fps, 2) + "x", "-",
                   std::to_string(r.total_frames)});
  }

  // Batched mode at the full stream count, with target scales snapped to
  // the regressor set so same-scale buckets actually fill (raw Algorithm-1
  // decode yields arbitrary integer scales that almost never coincide).
  // The snapped unbatched row is the apples-to-apples baseline: identical
  // work, no batching.
  {
    MultiStreamRunner snapped(det, reg, &h.renderer(),
                              h.dataset().scale_policy(),
                              ScaleSet::reg_default(), max_streams,
                              /*init_scale=*/600, /*snap_scales=*/true);
    MultiStreamResult u = snapped.run(jobs);
    const double snapped_fps = u.aggregate_fps;
    table.add_row({"snapped unbatched", fmt(u.wall_ms, 0),
                   fmt(u.aggregate_fps, 1),
                   fmt(u.aggregate_fps / serial_fps, 2) + "x", "-",
                   std::to_string(u.total_frames)});
    for (int mb = 2; mb <= max_streams; mb *= 2) {
      BatchSchedulerConfig cfg;
      cfg.max_batch = mb;
      MultiStreamResult r = snapped.run_batched(jobs, cfg);
      table.add_row({"batched b<=" + std::to_string(mb), fmt(r.wall_ms, 0),
                     fmt(r.aggregate_fps, 1),
                     fmt(r.aggregate_fps / snapped_fps, 2) + "x (vs snapped)",
                     fmt(r.batch_stats.mean_batch(), 2),
                     std::to_string(r.total_frames)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("unbatched best: %.1f FPS — batched rows above compare "
              "against the same jobs on %d streams\n",
              unbatched_max_fps, max_streams);
  std::printf("note: this bench defaults ADASCALE_THREADS to 1 to isolate "
              "stream-level scaling, which understates batching (a batch's "
              "single big GEMM cannot use the kernel pool); set "
              "ADASCALE_THREADS to the core count for the full-machine "
              "comparison.\n");
  return 0;
}
