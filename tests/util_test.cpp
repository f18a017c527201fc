#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "util/file_io.h"
#include "util/table.h"
#include "util/timer.h"

namespace ada {
namespace {

TEST(TextTable, AlignsColumnsAndCountsRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.0"});
  t.add_row({"b", "22.5"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.to_string());
  EXPECT_NO_THROW(t.to_csv());
}

TEST(TextTable, CsvHasCommas) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Fmt, FormatsPrecision) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt(1.2345, 0), "1");
  EXPECT_EQ(fmt_int(42), "42");
}

TEST(FileIo, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ada_io_test.bin").string();
  std::vector<float> data = {1.0f, -2.5f, 3.25f, 0.0f};
  ASSERT_TRUE(save_floats(path, data));
  std::vector<float> back;
  ASSERT_TRUE(load_floats(path, &back));
  EXPECT_EQ(back, data);
  std::remove(path.c_str());
}

TEST(FileIo, LoadMissingFileFails) {
  std::vector<float> back;
  EXPECT_FALSE(load_floats("/nonexistent/definitely/missing.bin", &back));
}

TEST(FileIo, EmptyVectorRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ada_io_empty.bin").string();
  ASSERT_TRUE(save_floats(path, {}));
  std::vector<float> back = {9.0f};
  ASSERT_TRUE(load_floats(path, &back));
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

/// Saves {1, 2} (an 8-byte payload), then overwrites the header's count
/// with `count` and appends `extra` zero bytes.  Returns the path.
std::string corrupted_file(const char* name, std::uint64_t count, int extra) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  EXPECT_TRUE(save_floats(path, {1.0f, 2.0f}));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return path;
  std::fseek(f, sizeof(std::uint32_t), SEEK_SET);  // past the magic
  std::fwrite(&count, sizeof count, 1, f);
  std::fseek(f, 0, SEEK_END);
  for (int i = 0; i < extra; ++i) std::fputc(0, f);
  std::fclose(f);
  return path;
}

/// load_floats must reject the file, leave `out` alone, and name the path,
/// the declared count and the payload size on stderr.
void expect_rejected(const std::string& path, const std::string& detail) {
  std::vector<float> back = {9.0f};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(load_floats(path, &back));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find(detail), std::string::npos) << err;
  EXPECT_EQ(back, std::vector<float>{9.0f});
  std::remove(path.c_str());
}

TEST(FileIo, OversizedCountFailsWithoutAllocating) {
  // 2^62 floats over an 8-byte payload: resizing first would throw
  // std::length_error out of every cache load.
  expect_rejected(corrupted_file("ada_io_huge.bin", 1ULL << 62, 0),
                  "declares 4611686018427387904 floats but holds 8 payload "
                  "bytes");
}

TEST(FileIo, ShortPayloadFails) {
  expect_rejected(corrupted_file("ada_io_short.bin", 3, 0),
                  "declares 3 floats but holds 8 payload bytes");
}

TEST(FileIo, TrailingBytesFail) {
  // Bytes after the declared payload mean the file is not what was saved.
  expect_rejected(corrupted_file("ada_io_trailing.bin", 2, 4),
                  "declares 2 floats but holds 12 payload bytes");
  expect_rejected(corrupted_file("ada_io_ragged.bin", 2, 1),
                  "declares 2 floats but holds 9 payload bytes");
}

TEST(FileIo, Fnv1aIsStableAndDiscriminates) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(FileIo, MakeDirsCreatesNested) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ada_mk" / "nested").string();
  EXPECT_TRUE(make_dirs(dir));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "ada_mk");
}

TEST(Timer, MeasuresNonNegativeAndResets) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GE(t.elapsed_ms(), 0.0);
  t.reset();
  EXPECT_LT(t.elapsed_ms(), 100.0);
}

TEST(RunningStat, ComputesMoments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-9);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, LargeOffsetSamplesKeepNonNegativeVariance) {
  // Regression: the old sum2/n − mean² form cancels catastrophically when
  // samples share a huge offset (e.g. epoch-milliseconds timestamps) and
  // returned slightly *negative* variance → NaN stddev in bench reports.
  // Welford accumulates centered residuals, so the tiny spread survives.
  RunningStat s;
  const double offset = 1e9;
  for (double jitter : {0.0, 1.0, 2.0, 3.0}) s.add(offset + jitter);
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-6);  // same spread as the small case
  EXPECT_DOUBLE_EQ(s.mean(), offset + 1.5);

  // Identical huge samples: variance must be exactly 0, never negative.
  RunningStat flat;
  for (int i = 0; i < 1000; ++i) flat.add(4.503599627e15);  // 2^52-scale
  EXPECT_GE(flat.variance(), 0.0);
  EXPECT_EQ(flat.variance(), 0.0);
  EXPECT_FALSE(std::isnan(std::sqrt(flat.variance())));
}

}  // namespace
}  // namespace ada
