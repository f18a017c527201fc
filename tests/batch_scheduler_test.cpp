// Cross-stream batching (MultiStreamRunner::run_batched): batched serving
// must be a pure throughput optimization — per-stream outputs memcmp-equal
// to per-stream serial execution no matter how frames coalesce into
// batches — with sane accounting, a single-stream fallback, and buckets
// that close on the drain loop's own state rather than on a timer.
#include <gtest/gtest.h>

#include <cstdlib>

#include "data/dataset.h"
#include "runtime/multi_stream.h"

namespace ada {
namespace {

class BatchSchedulerTest : public ::testing::Test {
 protected:
  BatchSchedulerTest()
      : dataset_(Dataset::synth_vid(1, 4, 77)),
        renderer_(dataset_.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset_.catalog().num_classes();
    Rng rng(5);
    detector_ = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = detector_->feature_channels();
    Rng rng2(6);
    regressor_ = std::make_unique<ScaleRegressor>(rcfg, &rng2);
  }

  std::vector<const Snippet*> val_jobs() const {
    std::vector<const Snippet*> jobs;
    for (const Snippet& s : dataset_.val_snippets()) jobs.push_back(&s);
    return jobs;
  }

  static void expect_equal_outputs(const MultiStreamResult& a,
                                   const MultiStreamResult& b) {
    ASSERT_EQ(a.streams.size(), b.streams.size());
    EXPECT_EQ(a.total_frames, b.total_frames);
    for (std::size_t s = 0; s < a.streams.size(); ++s) {
      const StreamOutput& x = a.streams[s];
      const StreamOutput& y = b.streams[s];
      ASSERT_EQ(x.frames.size(), y.frames.size());
      for (std::size_t f = 0; f < x.frames.size(); ++f) {
        EXPECT_EQ(x.frames[f].scale_used, y.frames[f].scale_used);
        EXPECT_EQ(x.frames[f].next_scale, y.frames[f].next_scale);
        EXPECT_EQ(x.frames[f].regressed_t, y.frames[f].regressed_t);
        const auto& dx = x.frames[f].detections.detections;
        const auto& dy = y.frames[f].detections.detections;
        ASSERT_EQ(dx.size(), dy.size());
        for (std::size_t d = 0; d < dx.size(); ++d) {
          EXPECT_EQ(dx[d].class_id, dy[d].class_id);
          EXPECT_EQ(dx[d].score, dy[d].score);
          EXPECT_EQ(dx[d].box.x1, dy[d].box.x1);
          EXPECT_EQ(dx[d].box.y1, dy[d].box.y1);
          EXPECT_EQ(dx[d].box.x2, dy[d].box.x2);
          EXPECT_EQ(dx[d].box.y2, dy[d].box.y2);
        }
      }
    }
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

TEST_F(BatchSchedulerTest, BatchedRunnerMatchesSerialBitForBit) {
  // Whatever batches form under scheduling jitter, the outputs must be the
  // bits the serial per-stream run produces — the scale trajectory feeds
  // back into the next frame, so even a 1-ulp detour would cascade into
  // different scales and visibly different detections.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4);
  const auto jobs = val_jobs();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 4;
  MultiStreamResult bat = batched.run_batched(jobs, cfg);
  MultiStreamResult ref = serial.run_serial(jobs);
  EXPECT_TRUE(bat.batched);
  expect_equal_outputs(bat, ref);
  // Every frame went through a backbone batch.
  EXPECT_EQ(bat.batch_stats.frames, bat.total_frames);
}

TEST_F(BatchSchedulerTest, OddBatchKnobsStillMatchSerial) {
  // max_batch not dividing the stream count + a single context per policy:
  // forces leftover frames into later batches and batches contending for
  // the one context, which no parked frame holds.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4, /*init_scale=*/600, /*snap_scales=*/false,
                            /*contexts_per_policy=*/1);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4);
  const auto jobs = val_jobs();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 3;
  MultiStreamResult bat = batched.run_batched(jobs, cfg);
  MultiStreamResult ref = serial.run_serial(jobs);
  expect_equal_outputs(bat, ref);
}

TEST_F(BatchSchedulerTest, SnappedScalesStillMatchSerialAndFormBatches) {
  // The serving configuration the benches record: target scales snapped to
  // the regressor set so same-scale buckets fill.  Snapping applies in both
  // modes, so bit-equality must hold — and with 4 streams starting at the
  // same init scale, real multi-frame batches must actually form.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4, /*init_scale=*/600, /*snap_scales=*/true);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4, /*init_scale=*/600, /*snap_scales=*/true);
  const auto jobs = val_jobs();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 4;
  MultiStreamResult bat = batched.run_batched(jobs, cfg);
  MultiStreamResult ref = serial.run_serial(jobs);
  expect_equal_outputs(bat, ref);
  // Snapped scales land on set members only.
  for (const StreamOutput& s : bat.streams)
    for (const AdaFrameOutput& f : s.frames)
      EXPECT_TRUE(ScaleSet::reg_default().contains(f.next_scale))
          << f.next_scale;
  EXPECT_GT(bat.batch_stats.mean_batch(), 1.0)
      << "4 same-scale streams should coalesce into multi-frame batches";
}

TEST_F(BatchSchedulerTest, SingleStreamFallsBackInline) {
  MultiStreamRunner runner(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           1);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           1);
  const auto jobs = val_jobs();
  MultiStreamResult bat = runner.run_batched(jobs);
  MultiStreamResult ref = serial.run_serial(jobs);
  expect_equal_outputs(bat, ref);
  // No other stream holds frames → every frame is served alone.
  EXPECT_EQ(bat.batch_stats.single_fallbacks, bat.total_frames);
  EXPECT_EQ(bat.batch_stats.batches, 0);
}

TEST_F(BatchSchedulerTest, StatsAccountingIsConsistent) {
  MultiStreamRunner runner(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4);
  const auto jobs = val_jobs();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 4;
  MultiStreamResult bat = runner.run_batched(jobs, cfg);
  const BatchSchedulerStats& st = bat.batch_stats;
  EXPECT_EQ(st.frames, bat.total_frames);
  long hist_frames = 0, hist_batches = 0;
  for (std::size_t b = 0; b < st.batch_size_hist.size(); ++b) {
    hist_frames += st.batch_size_hist[b] * static_cast<long>(b);
    hist_batches += st.batch_size_hist[b];
  }
  EXPECT_EQ(hist_batches, st.batches);
  EXPECT_EQ(hist_frames + st.single_fallbacks, st.frames);
  if (st.batches > 0) {
    EXPECT_GE(st.mean_batch(), 1.0);
    EXPECT_LE(st.mean_batch(), static_cast<double>(cfg.max_batch));
  }
}

TEST_F(BatchSchedulerTest, FirstBucketClosesAsAFullBatch) {
  // 4 snapped streams all start at 600, so their first frames share one
  // bucket.  No stream can finish a frame without parking one, so neither
  // the full nor the all-parked rule can close that bucket before all four
  // are in it: a batch of 4 at any worker count, with no timer involved.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4, /*init_scale=*/600, /*snap_scales=*/true);
  const auto jobs = val_jobs();
  ASSERT_GE(jobs.size(), 4u);
  BatchSchedulerConfig cfg;
  cfg.max_batch = 4;
  const MultiStreamResult bat = batched.run_batched(jobs, cfg);
  ASSERT_EQ(bat.batch_stats.batch_size_hist.size(), 5u);
  EXPECT_GE(bat.batch_stats.batch_size_hist[4], 1);
}

}  // namespace
}  // namespace ada
