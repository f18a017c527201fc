#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace servebench {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int SpanRecorder::begin(const char* name, long frame, int scale, bool probe) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.frame = frame;
  s.scale = scale;
  s.probe = probe;
  s.start_ms = clock_.now_ms();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  const double now = clock_.now_ms();
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "servebench: span %d closed out of order\n", id);
    std::abort();
  }
  spans_[static_cast<std::size_t>(id)].end_ms = now;
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_ms() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                 s.end_ms);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Union of the child intervals, clipped to the parent.
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo_raw, hi_raw] : iv) {
      const double lo = std::max(lo_raw, s.start_ms);
      const double hi = std::min(hi_raw, s.end_ms);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = s.dur_ms() - covered;
  }
  return self;
}

bool SpanRecorder::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i)
    out << (i ? "," : "") << '"' << escape(metadata[i].first) << "\":\""
        << escape(metadata[i].second) << '"';
  out << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Chrome trace timestamps are microseconds.
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"frame\":%ld,\"scale\":%d,\"probe\":%s}}",
                  i ? ",\n" : "\n", s.name, 1000.0 * s.start_ms,
                  1000.0 * s.dur_ms(), i, s.parent, s.frame, s.scale,
                  s.probe ? "true" : "false");
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace servebench
