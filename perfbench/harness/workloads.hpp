// The benchmark's workloads: each drives one serve::FrontDoor from prebuilt
// per-client request lists and reports end-to-end metrics (timed run) or
// per-layer metrics (traced run). NOTES.md says why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: the timed run (end-to-end metrics). true: the traced run
  /// (per-layer metrics), whose spans go to `span_path` when it is set.
  bool trace = false;
  std::string span_path;
};

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  Counts counts;
  bool correct = true;
  std::vector<std::string> problems;  ///< the first few, for the log
  std::vector<MetricValue> metrics;
  std::size_t clients = 0;
  std::size_t edits = 0;   ///< policy edits timed for edit_p50_us/edit_p90_us
  std::size_t setup_batches = 0;  ///< batches whose median is setup_s
  /// peak_rss_mb counts from set-up on (false: from process start, when
  /// the kernel would not reset the high-water mark).
  bool peak_rss_reset = false;
  /// Traced runs: spans written to the span file, and spans past each
  /// client's buffer that were counted but not kept.
  std::size_t spans_kept = 0;
  std::size_t spans_dropped = 0;
};

/// Runs one workload. Returns false with `error` set when the run could not
/// be made at all (unknown workload, set-up failure); a run that completes
/// with wrong answers returns true with `report->correct == false`.
bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error);

}  // namespace perfbench
