// The benchmark's own span buffer for the traced run.
//
// Spans are recorded from the benchmark's code around calls into the
// library's public functions (FrontDoor::Serve, ParseAndBind, ...) and from
// the stage times and operator profile a Response carries. A span's layer is
// its name up to the first '.', so "planner.search" belongs to `planner`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  int parent = -1;  ///< index into the same span list, -1 for a root
  std::uint64_t request = 0;
};

inline std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once).
inline std::vector<std::int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_us;
    const std::int64_t hi = std::max(spans[i].end_us, lo);
    std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, cursor);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// A bounded, per-thread span log: spans past the capacity are counted but
/// not kept, so a long traced run cannot grow without limit.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : capacity_(capacity) {}

  void Append(const std::vector<SpanRecord>& request_spans) {
    if (spans_.size() + request_spans.size() > capacity_) {
      dropped_ += request_spans.size();
      return;
    }
    const int base = static_cast<int>(spans_.size());
    for (SpanRecord s : request_spans) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_ = 0;
};

/// Writes the spans as JSON lines: first one object with the numbers of
/// spans kept and dropped (a file with dropped spans is truncated), then
/// one object per span; `parent` indexes the spans of the same `thread`
/// (buffer).
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t kept = 0, dropped = 0;
  for (const SpanBuffer* b : buffers) {
    kept += b->spans().size();
    dropped += b->dropped();
  }
  std::fprintf(f, "{\"spans_kept\":%zu,\"spans_dropped\":%zu}\n", kept, dropped);
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    for (const SpanRecord& s : buffers[t]->spans()) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_us\":%lld,"
                   "\"end_us\":%lld,\"parent\":%d,\"request\":%llu}\n",
                   t, s.name.c_str(), static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
