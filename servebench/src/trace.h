// In-memory span recorder for the traced replay.
//
// Spans are recorded from the benchmark's own code, around each public call
// into a layer of the program; nothing inside the program is instrumented.
// Every span keeps its name, start, end, the span that was open when it began
// (its parent) and the served frame it belongs to.  Spans stay in memory
// until the run ends and are then written once as Chrome trace-event JSON,
// which opens in Perfetto or chrome://tracing.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace servebench {

struct Span {
  const char* name = "";  ///< "<layer>.<call>", e.g. "detection.forward"
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  long frame = -1;   ///< served frame id (-1 outside any frame)
  int scale = 0;     ///< nominal scale of the call, 0 when it has none
  bool probe = false;  ///< a layer probe, not part of a served frame

  double dur_ms() const { return end_ms - start_ms; }
};

class SpanRecorder {
 public:
  /// Opens a span nested in the innermost open span; returns its index.
  int begin(const char* name, long frame, int scale = 0, bool probe = false);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it its child spans cover.
  std::vector<double> self_ms() const;

  /// Writes every span as a Chrome trace-event "X" event; `metadata` lands
  /// in the top-level "otherData" object.  Returns false on I/O failure.
  bool write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  ada::WallClock clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object; a null recorder records
/// nothing (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, long frame, int scale = 0,
             bool probe = false)
      : rec_(rec), id_(rec ? rec->begin(name, frame, scale, probe) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace servebench
