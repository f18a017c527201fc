// DFF on the serving path: the keyframe/warp branch of AdaScalePipeline /
// MultiStreamRunner is the repo's one Deep Feature Flow implementation.
// Golden bytes pin its output per keyframe configuration; a behaviour table
// checks the keyframe contract (schedule, key-only scale changes, warp
// cost); and the suite proves batched, concurrent and serial execution
// bit-identical no matter how key frames coalesce.  Serving is stateful, so
// it also proves the per-stream context carries no state across streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "adascale/pipeline.h"
#include "adascale/scale_target.h"
#include "data/dataset.h"
#include "runtime/multi_stream.h"
#include "util/file_io.h"

namespace ada {
namespace {

void expect_equal_detections(const DetectionOutput& a,
                             const DetectionOutput& b) {
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t d = 0; d < a.detections.size(); ++d) {
    EXPECT_EQ(a.detections[d].class_id, b.detections[d].class_id);
    EXPECT_EQ(a.detections[d].score, b.detections[d].score);
    EXPECT_EQ(a.detections[d].box.x1, b.detections[d].box.x1);
    EXPECT_EQ(a.detections[d].box.y1, b.detections[d].box.y1);
    EXPECT_EQ(a.detections[d].box.x2, b.detections[d].box.x2);
    EXPECT_EQ(a.detections[d].box.y2, b.detections[d].box.y2);
  }
}

/// Per-stream outputs of two runs must match bit for bit, including the
/// DFF bookkeeping fields (key placement is part of the contract: a key in
/// one mode but not the other means the stateful branch diverged).
void expect_equal_outputs(const MultiStreamResult& a,
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
      EXPECT_EQ(x.frames[f].dff, y.frames[f].dff);
      EXPECT_EQ(x.frames[f].dff_key, y.frames[f].dff_key);
      EXPECT_EQ(x.frames[f].warp_residual, y.frames[f].warp_residual);
      expect_equal_detections(x.frames[f].detections, y.frames[f].detections);
    }
  }
}

class DffServingTest : public ::testing::Test {
 protected:
  DffServingTest()
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

  AdaScalePipeline make_serving(int init_scale = 600) {
    return AdaScalePipeline(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            init_scale);
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

/// Appends the raw bytes of a trivially copyable value.
template <typename T>
void put(std::string* bytes, const T& v) {
  bytes->append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Everything a consumer of one DFF frame observes: the keyframe and scale
/// bookkeeping plus every detection field servebench's replay compares.
std::string frame_bytes(const AdaFrameOutput& out) {
  std::string b;
  put(&b, out.dff_key);
  put(&b, out.scale_used);
  put(&b, out.next_scale);
  put(&b, out.regressed_t);
  put(&b, out.warp_residual);
  const DetectionOutput& d = out.detections;
  put(&b, d.image_h);
  put(&b, d.image_w);
  put(&b, d.detections.size());
  for (const Detection& x : d.detections) {
    put(&b, x.class_id);
    put(&b, x.box);
    put(&b, x.score);
    put(&b, x.probs.size());
    b.append(reinterpret_cast<const char*>(x.probs.data()),
             x.probs.size() * sizeof(float));
    put(&b, x.delta);
    put(&b, x.anchor);
  }
  return b;
}

std::string hex_list(const std::vector<std::uint64_t>& hashes) {
  std::ostringstream os;
  for (std::size_t i = 0; i < hashes.size(); ++i)
    os << "\n  frame " << i << ": 0x" << std::hex << hashes[i] << std::dec;
  return os.str();
}

DffServingConfig fixed_dff(int key_interval, bool adascale) {
  DffServingConfig c;
  c.policy = DffServingConfig::Keyframe::kFixedInterval;
  c.key_interval = key_interval;
  c.adascale = adascale;
  return c;
}

DffServingConfig adaptive_dff(float threshold, int max_interval,
                              bool adascale) {
  DffServingConfig c;
  c.policy = DffServingConfig::Keyframe::kAdaptive;
  c.residual_threshold = threshold;
  c.max_interval = max_interval;
  c.scale_jump_frac = 0.0f;
  c.adascale = adascale;
  return c;
}

TEST_F(DffServingTest, GoldenBytes) {
  // The keyframe/warp branch pinned byte for byte.  The models run pinned
  // fp32 so every ADASCALE_GEMM default reads the same bytes.  Init 240
  // rows visit several scales (at 600 the seeded regressor never moves);
  // the 0.02 threshold forces residual keys; the default config at 240
  // fires the scale-jump trigger.
  detector_->set_execution_policy(ExecutionPolicy::fp32());
  regressor_->set_execution_policy(ExecutionPolicy::fp32());
  struct Row {
    const char* name;
    DffServingConfig cfg;
    int init_scale;
    std::uint64_t hash;
    int keys;
    std::size_t distinct_scales;
  };
  const Row rows[] = {
      {"fixed k=4, AdaScale, init 240", fixed_dff(4, true), 240,
       0xaf5c331096e66855ULL, 12, 6},
      {"fixed k=3, plain, init 480", fixed_dff(3, false), 480,
       0x3732979105ea81b4ULL, 16, 1},
      {"adaptive 0.02/6, AdaScale, init 240", adaptive_dff(0.02f, 6, true),
       240, 0xc6e012c51f8c21f7ULL, 12, 6},
      {"adaptive 0.02/20, plain, init 600", adaptive_dff(0.02f, 20, false),
       600, 0x0150c1315a57cdecULL, 9, 1},
      {"default config, init 240", DffServingConfig{}, 240,
       0x8f50bccbec2893e8ULL, 28, 5},
  };
  for (const Row& row : rows) {
    AdaScalePipeline serving = make_serving(row.init_scale);
    serving.set_dff(row.cfg);
    std::string all;
    std::vector<std::uint64_t> per_frame;
    int keys = 0;
    std::set<int> scales;
    for (const Snippet& snip : dataset_.val_snippets()) {
      serving.reset();
      for (const Scene& frame : snip.frames) {
        const AdaFrameOutput out = serving.process(frame);
        const std::string b = frame_bytes(out);
        per_frame.push_back(fnv1a(b));
        all += b;
        keys += out.dff_key ? 1 : 0;
        scales.insert(out.scale_used);
      }
    }
    EXPECT_EQ(fnv1a(all), row.hash)
        << row.name << "; per-frame hashes:" << hex_list(per_frame);
    EXPECT_EQ(keys, row.keys) << row.name;
    EXPECT_EQ(scales.size(), row.distinct_scales) << row.name;
  }
}

TEST_F(DffServingTest, KeyframeBehaviours) {
  // The keyframe contract, one row per configuration.  `scheduled` is the
  // key placement the policy fixes ahead of time: every k-th frame, or the
  // first frame and every max_interval-th warp under the adaptive policy.
  // No row arms the scale-jump trigger, so any other key is
  // residual-forced.
  constexpr float kNeverRefresh = 1e9f;
  struct Row {
    const char* name;
    DffServingConfig cfg;
    int init_scale;
    bool static_scene;  ///< every frame repeats its snippet's first frame
  };
  const Row rows[] = {
      {"fixed k=4, AdaScale, init 240", fixed_dff(4, true), 240, false},
      {"fixed k=3, plain, init 480", fixed_dff(3, false), 480, false},
      {"adaptive 0.02/6, AdaScale, init 240", adaptive_dff(0.02f, 6, true),
       240, false},
      {"adaptive never-refresh/4, plain, init 600",
       adaptive_dff(kNeverRefresh, 4, false), 600, false},
      {"fixed k=2, plain, static scene", fixed_dff(2, false), 600, true},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const DffServingConfig& cfg = row.cfg;
    const bool fixed = cfg.policy == DffServingConfig::Keyframe::kFixedInterval;
    AdaScalePipeline serving = make_serving(row.init_scale);
    serving.set_dff(cfg);
    int frames = 0, keys = 0;
    double key_ms = 0.0, warp_ms = 0.0;
    std::set<int> scales;
    for (const Snippet& snip : dataset_.val_snippets()) {
      serving.reset();
      int since_key = 0, prev_scale = 0;
      DetectionOutput key_dets;
      for (std::size_t f = 0; f < snip.frames.size(); ++f) {
        const Scene& frame = snip.frames[row.static_scene ? 0 : f];
        const AdaFrameOutput out = serving.process(frame);
        const bool scheduled =
            fixed ? f % static_cast<std::size_t>(cfg.key_interval) == 0
                  : (f == 0 || since_key >= cfg.max_interval);
        if (fixed) {
          EXPECT_EQ(out.dff_key, scheduled) << "frame " << f;
        }
        if (scheduled) {
          EXPECT_TRUE(out.dff_key) << "frame " << f;
          EXPECT_EQ(out.warp_residual, 0.0f) << "frame " << f;
          EXPECT_EQ(out.flow_ms, 0.0) << "frame " << f;
        } else if (out.dff_key) {
          EXPECT_GT(out.flow_ms, 0.0) << "frame " << f;
          EXPECT_GT(out.warp_residual, cfg.residual_threshold)
              << "frame " << f;
        } else {
          EXPECT_GT(out.flow_ms, 0.0) << "frame " << f;
          EXPECT_EQ(out.scale_used, prev_scale)
              << "scale changed on warp frame " << f;
        }
        if (!cfg.adascale) {
          EXPECT_EQ(out.scale_used, row.init_scale) << "frame " << f;
          EXPECT_EQ(out.regressed_t, 0.0f) << "frame " << f;
        }
        if (out.dff_key) {
          key_dets = out.detections;
        } else if (row.static_scene) {
          // Zero flow: the warped features are the key's own.
          const auto& a = key_dets.detections;
          const auto& b = out.detections.detections;
          EXPECT_EQ(a.size(), b.size()) << "frame " << f;
          for (std::size_t d = 0; d < std::min(a.size(), b.size()); ++d)
            EXPECT_NEAR(a[d].score, b[d].score, 0.05f) << "frame " << f;
        }
        since_key = out.dff_key ? 0 : since_key + 1;
        prev_scale = out.scale_used;
        scales.insert(out.scale_used);
        ++frames;
        keys += out.dff_key ? 1 : 0;
        (out.dff_key ? key_ms : warp_ms) += out.total_ms();
      }
    }
    if (cfg.adascale) {
      EXPECT_GT(scales.size(), 1u) << "no scale switch seen";
    }
    if (!fixed && cfg.residual_threshold >= kNeverRefresh) {
      EXPECT_LE(keys, frames / cfg.max_interval + 1);
    }
    ASSERT_GT(keys, 0);
    ASSERT_LT(keys, frames);
    EXPECT_LT(warp_ms / (frames - keys), key_ms / keys);
  }
}

TEST_F(DffServingTest, BatchedDffMatchesSerialDff) {
  // The core serving contract: run_batched with DFF — key frames coalesced
  // across streams into shared backbone forwards, warp frames finishing in
  // their first half — produces the same bits as run_serial, for the
  // default adaptive policy with every trigger armed.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4, /*init_scale=*/600, /*snap_scales=*/true);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4, /*init_scale=*/600, /*snap_scales=*/true);
  DffServingConfig scfg;  // default: adaptive, adascale, scale-jump on
  batched.set_dff(scfg);
  serial.set_dff(scfg);
  const auto jobs = val_jobs();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 4;
  const MultiStreamResult bat = batched.run_batched(jobs, cfg);
  const MultiStreamResult ref = serial.run_serial(jobs);
  expect_equal_outputs(bat, ref);

  // Only key frames join batches; warp frames bypass the backbone.
  long keys = 0;
  for (const StreamOutput& s : bat.streams)
    for (const AdaFrameOutput& f : s.frames)
      if (f.dff_key) ++keys;
  EXPECT_EQ(bat.batch_stats.frames, keys);
  EXPECT_LT(keys, bat.total_frames);
}

TEST_F(DffServingTest, BatchedDffOddKnobsStillMatchSerial) {
  // Awkward batch composition — max_batch not dividing the stream count,
  // one context per policy shared by batches and warp frames — must not
  // change a single bit.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4, /*init_scale=*/600, /*snap_scales=*/true,
                            /*contexts_per_policy=*/1);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4, /*init_scale=*/600, /*snap_scales=*/true);
  DffServingConfig scfg;
  scfg.policy = DffServingConfig::Keyframe::kFixedInterval;
  scfg.key_interval = 3;
  scfg.adascale = true;
  batched.set_dff(scfg);
  serial.set_dff(scfg);
  const auto jobs = val_jobs();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 3;
  expect_equal_outputs(batched.run_batched(jobs, cfg),
                       serial.run_serial(jobs));
}

TEST_F(DffServingTest, BatchedDffUnevenDrainMatchesSerial) {
  // 5 snippets over 4 streams: stream 0 holds a second snippet after the
  // others run dry, so the tail's key frames can only close their buckets
  // through the all-parked rule as the other streams stop counting.  Every
  // frame must be served, with the serial bits.
  MultiStreamRunner batched(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            4, /*init_scale=*/600, /*snap_scales=*/true);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           4, /*init_scale=*/600, /*snap_scales=*/true);
  DffServingConfig scfg;  // default: adaptive, adascale, scale-jump on
  batched.set_dff(scfg);
  serial.set_dff(scfg);
  const auto snippets = val_jobs();
  ASSERT_FALSE(snippets.empty());
  std::vector<const Snippet*> jobs;
  for (std::size_t j = 0; j < 5; ++j)
    jobs.push_back(snippets[j % snippets.size()]);
  long expected = 0;
  for (const Snippet* j : jobs) expected += j->num_frames();
  BatchSchedulerConfig cfg;
  cfg.max_batch = 3;
  const MultiStreamResult bat = batched.run_batched(jobs, cfg);
  EXPECT_EQ(bat.total_frames, expected);
  expect_equal_outputs(bat, serial.run_serial(jobs));
}

TEST_F(DffServingTest, HeterogeneousPoliciesConcurrentMatchesSerial) {
  // Interleaved stateful streams with *different* pinned execution policies:
  // run() honors per-stream policies and must equal the serial per-stream
  // run — any cross-stream leak of DFF caches or scale state would surface
  // as a bitwise mismatch.
  MultiStreamRunner concurrent(detector_.get(), regressor_.get(), &renderer_,
                               dataset_.scale_policy(),
                               ScaleSet::reg_default(), 2);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           2);
  for (MultiStreamRunner* r : {&concurrent, &serial}) {
    r->set_stream_policy(0, ExecutionPolicy::fp32(), ExecutionPolicy::fp32());
    r->set_stream_policy(1, ExecutionPolicy::reference(),
                         ExecutionPolicy::reference());
    DffServingConfig scfg;
    scfg.max_interval = 5;
    r->set_dff(scfg);
  }
  const auto jobs = val_jobs();
  expect_equal_outputs(concurrent.run(jobs), serial.run_serial(jobs));
}

TEST_F(DffServingTest, PerStreamContextIsolatedAcrossStreams) {
  // Round-robin job assignment means stream s of a 2-stream run sees
  // exactly the jobs a 1-stream runner would see given that subset — if the
  // outputs match, no state crossed between the interleaved streams.
  MultiStreamRunner pair(detector_.get(), regressor_.get(), &renderer_,
                         dataset_.scale_policy(), ScaleSet::reg_default(), 2);
  DffServingConfig scfg;
  pair.set_dff(scfg);
  const auto jobs = val_jobs();
  const MultiStreamResult both = pair.run(jobs);

  for (int s = 0; s < 2; ++s) {
    MultiStreamRunner solo(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           1);
    solo.set_dff(scfg);
    std::vector<const Snippet*> subset;
    for (std::size_t j = static_cast<std::size_t>(s); j < jobs.size(); j += 2)
      subset.push_back(jobs[j]);
    const MultiStreamResult alone = solo.run_serial(subset);
    const StreamOutput& x = both.streams[static_cast<std::size_t>(s)];
    const StreamOutput& y = alone.streams[0];
    ASSERT_EQ(x.frames.size(), y.frames.size());
    for (std::size_t f = 0; f < x.frames.size(); ++f) {
      EXPECT_EQ(x.frames[f].scale_used, y.frames[f].scale_used);
      EXPECT_EQ(x.frames[f].dff_key, y.frames[f].dff_key);
      EXPECT_EQ(x.frames[f].warp_residual, y.frames[f].warp_residual);
      expect_equal_detections(x.frames[f].detections,
                              y.frames[f].detections);
    }
  }
}

TEST_F(DffServingTest, ScaleJumpTriggerForcesKeyframes) {
  // With a near-zero jump threshold every warp frame whose regressed scale
  // differs from the current one must become a key; with the trigger off
  // those frames warp.  The non-key frames that remain must all satisfy the
  // jump bound — that is the trigger's contract.
  const auto count_keys = [&](float jump_frac) {
    AdaScalePipeline serving = make_serving();
    DffServingConfig scfg;
    scfg.residual_threshold = 1.0f;  // residual trigger effectively off
    scfg.max_interval = 1000;        // interval trigger effectively off
    scfg.scale_jump_frac = jump_frac;
    serving.set_dff(scfg);
    long keys = 0;
    for (const Snippet& snip : dataset_.val_snippets()) {
      serving.reset();
      for (const Scene& frame : snip.frames) {
        const AdaFrameOutput out = serving.process(frame);
        if (out.dff_key) ++keys;
        if (!out.dff_key && jump_frac > 0.0f) {
          const int decoded = decode_scale_target(out.regressed_t,
                                                  out.scale_used,
                                                  ScaleSet::reg_default());
          const float jump =
              std::abs(static_cast<float>(decoded - out.scale_used)) /
              static_cast<float>(out.scale_used);
          EXPECT_LT(jump, jump_frac);
        }
      }
    }
    return keys;
  };
  const long keys_tight = count_keys(1e-4f);
  const long keys_off = count_keys(0.0f);
  EXPECT_GE(keys_tight, keys_off);
}

TEST_F(DffServingTest, ResetDropsKeyCacheAndRestartsAtInitScale) {
  AdaScalePipeline serving = make_serving();
  DffServingConfig scfg;
  serving.set_dff(scfg);
  const auto& frames = dataset_.val_snippets()[0].frames;
  serving.process(frames[0]);
  serving.process(frames[1]);
  serving.reset();
  EXPECT_FALSE(serving.context().dff.has_key);
  EXPECT_EQ(serving.current_scale(), 600);
  const AdaFrameOutput out = serving.process(frames[2]);
  EXPECT_TRUE(out.dff_key) << "first frame after reset must be a key";
}

}  // namespace
}  // namespace ada
