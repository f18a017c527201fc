#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/conv2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace ada {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 64; ++i)
    pool.submit([&] {
      if (count.fetch_add(1) + 1 == 64) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == 64; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10007);
  pool.parallel_for(10007, 64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, 16, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  pool.parallel_for(3, 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64 * 64);
  pool.parallel_for(64, 4, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o)
      pool.parallel_for(64, 4, [&, o](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i)
          hits[static_cast<std::size_t>(o * 64 + i)]++;
      });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersShareThePool) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(4 * 5000);
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back([&, c] {
      pool.parallel_for(5000, 64, [&, c](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          hits[static_cast<std::size_t>(c * 5000 + i)]++;
      });
    });
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// One 10007-index, grain-64 parallel_for on `pool`: the (begin, end)
/// ranges fn saw and the threads that ran them.
struct RangeLog {
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::vector<std::thread::id> threads;
};

RangeLog log_parallel_for(ThreadPool* pool) {
  RangeLog log;
  std::mutex mu;
  pool->parallel_for(10007, 64, [&](std::int64_t b, std::int64_t e) {
    const std::lock_guard<std::mutex> lock(mu);
    log.ranges.emplace_back(b, e);
    log.threads.push_back(std::this_thread::get_id());
  });
  return log;
}

TEST(InlineKernelScope, RunsTheWholeRangeOnTheCallingThread) {
  ThreadPool pool(3);
  const std::uint64_t before = pool.helpers_submitted();
  RangeLog log;
  {
    const InlineKernelScope scope;
    log = log_parallel_for(&pool);
  }
  ASSERT_EQ(log.ranges.size(), 1u);
  EXPECT_EQ(log.ranges[0].first, 0);
  EXPECT_EQ(log.ranges[0].second, 10007);
  EXPECT_EQ(log.threads[0], std::this_thread::get_id());
  EXPECT_EQ(pool.helpers_submitted(), before);
}

TEST(InlineKernelScope, NestedScopesRestoreTheOuterState) {
  ThreadPool pool(3);
  const std::uint64_t before = pool.helpers_submitted();
  {
    const InlineKernelScope outer;
    { const InlineKernelScope inner; }
    EXPECT_EQ(log_parallel_for(&pool).ranges.size(), 1u);
  }
  EXPECT_EQ(pool.helpers_submitted(), before);

  // Out of every scope the same call fans out again, and a fan-out leaves
  // the caller unmarked for the next one.
  const std::int64_t chunks = (10007 + 63) / 64;
  for (int call = 1; call <= 2; ++call) {
    EXPECT_EQ(static_cast<std::int64_t>(log_parallel_for(&pool).ranges.size()),
              chunks);
    EXPECT_EQ(pool.helpers_submitted() - before,
              static_cast<std::uint64_t>(call * std::min<std::int64_t>(
                                                    3, chunks - 1)));
  }
}

TEST(GlobalPool, ThreadCountParseAcceptsOnlyWholePositiveIntegers) {
  struct Case {
    const char* env;
    int want;
    bool warns;
  };
  const Case cases[] = {
      {nullptr, 7, false},
      {"1", 1, false},
      {"4", 4, false},
      {"16", 16, false},
      {"4x", 7, true},
      {"0", 7, true},
      {"-2", 7, true},
      {"four", 7, true},
      {"", 7, true},
      {" 4", 7, true},
      {"+4", 7, true},
      {"99999999999", 7, true},
      {"99999999999999999999999", 7, true},
  };
  for (const Case& c : cases) {
    const std::string name = c.env == nullptr ? "unset" : c.env;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parse_thread_count(c.env, 7), c.want) << name;
    const std::string err = ::testing::internal::GetCapturedStderr();
    if (c.warns) {
      EXPECT_NE(err.find("ADASCALE_THREADS=" + name + " "), std::string::npos)
          << name << ": " << err;
      EXPECT_NE(err.find("using 7 "), std::string::npos) << name << ": " << err;
    } else {
      EXPECT_EQ(err, "") << name;
    }
  }
}

TEST(GlobalPool, ParallelKernelsMatchSerialBitForBit) {
  // The contract that makes the parallel runtime safe to wire into training:
  // every parallelized kernel produces exactly the serial result.  Compare a
  // conv forward+backward against ADASCALE_THREADS-independent ground truth
  // computed with a throwaway serial spec... the kernels themselves pick up
  // the global pool, so this exercises whatever thread count the environment
  // configured.
  Rng rng(42);
  ConvSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 12;
  Tensor x(1, 8, 33, 47);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform() - 0.5f;
  Tensor w(12, 8, 3, 3);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.uniform() - 0.5f;
  Tensor b(1, 12, 1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform() - 0.5f;

  Tensor y1, y2;
  conv2d_forward(spec, x, w, b, &y1);
  conv2d_forward(spec, x, w, b, &y2);
  ASSERT_TRUE(y1.same_shape(y2));
  for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_EQ(y1[i], y2[i]);

  Tensor dy(y1.n(), y1.c(), y1.h(), y1.w());
  for (std::size_t i = 0; i < dy.size(); ++i) dy[i] = rng.uniform() - 0.5f;
  Tensor dx1(1, 8, 33, 47), dx2(1, 8, 33, 47);
  Tensor dw1(12, 8, 3, 3), dw2(12, 8, 3, 3);
  Tensor db1(1, 12, 1, 1), db2(1, 12, 1, 1);
  conv2d_backward(spec, x, w, dy, &dx1, &dw1, &db1);
  conv2d_backward(spec, x, w, dy, &dx2, &dw2, &db2);
  for (std::size_t i = 0; i < dx1.size(); ++i) ASSERT_EQ(dx1[i], dx2[i]);
  for (std::size_t i = 0; i < dw1.size(); ++i) ASSERT_EQ(dw1[i], dw2[i]);
  for (std::size_t i = 0; i < db1.size(); ++i) ASSERT_EQ(db1[i], db2[i]);
}

TEST(GlobalPool, IsAvailableAndStable) {
  ThreadPool* a = global_pool();
  ThreadPool* b = global_pool();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 0);
}

}  // namespace
}  // namespace ada
