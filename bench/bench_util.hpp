// Shared helpers for the experiment harness (bench/).
//
// Every bench binary regenerates one experiment of EXPERIMENTS.md: it first
// prints the experiment's table/series to stdout (the artifact), then runs
// google-benchmark timings for the operations involved. Alongside the
// printed table each experiment also records its series into an `Artifact`,
// which lands as machine-readable BENCH_<name>.json (in $CISQP_BENCH_OUT_DIR
// when set, else the working directory; a bench that cannot write it exits
// non-zero) — scripts/run_experiments.sh collects these for downstream
// plotting.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "plan/builder.hpp"
#include "planner/safe_planner.hpp"
#include "sql/binder.hpp"
#include "workload/medical.hpp"

namespace cisqp::bench {

/// Dies with a message when a Status/Result is not OK — bench setup only.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void UnwrapStatus(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

/// Thread count for the parallel stages of a bench run: $CISQP_BENCH_THREADS
/// when set (scripts/run_experiments.sh forwards its --threads flag this
/// way), else 0 = hardware concurrency. Results are identical at any
/// setting; only wall-clock changes.
inline std::size_t BenchThreads() {
  const char* env = std::getenv("CISQP_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 0;
}

/// The effective parallelism a `threads` option resolves to (0 = hardware).
inline std::size_t ResolveThreads(std::size_t threads) {
  return threads == 0 ? ThreadPool::HardwareConcurrency() : threads;
}

/// The paper's plan (Fig. 2) for the Example 2.2 query.
inline plan::QueryPlan PaperPlan(const catalog::Catalog& cat) {
  auto spec = Unwrap(
      sql::ParseAndBind(cat, workload::MedicalScenario::kPaperQuery),
      "parse paper query");
  return Unwrap(plan::PlanBuilder(cat).Build(spec), "build paper plan");
}

/// Section header for the printed experiment artifact.
inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper artifact/claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

/// Machine-readable experiment artifact. Rows of key/value cells accumulate
/// via Row()/Value() chains and Write() renders them as
/// BENCH_<name>.json: {"experiment","claim","rows":[{...},...]}.
class Artifact {
 public:
  Artifact(std::string name, std::string experiment, std::string claim)
      : name_(std::move(name)), experiment_(std::move(experiment)),
        claim_(std::move(claim)) {}

  /// Starts a new row; subsequent Value() calls fill it.
  Artifact& Row() {
    rows_.emplace_back();
    return *this;
  }

  Artifact& Value(std::string_view key, std::string_view v) {
    std::string quoted(1, '"');
    quoted += obs::JsonEscape(v);
    quoted += '"';
    return Cell(key, std::move(quoted));
  }
  Artifact& Value(std::string_view key, const char* v) {
    return Value(key, std::string_view(v));
  }
  Artifact& Value(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Cell(key, buf);
  }
  Artifact& Value(std::string_view key, std::int64_t v) {
    return Cell(key, std::to_string(v));
  }
  Artifact& Value(std::string_view key, std::size_t v) {
    return Cell(key, std::to_string(v));
  }
  Artifact& Value(std::string_view key, int v) {
    return Cell(key, std::to_string(v));
  }
  Artifact& Value(std::string_view key, bool v) {
    return Cell(key, v ? "true" : "false");
  }
  /// Embeds `raw` verbatim as the cell value — it must already be valid JSON
  /// (e.g. a QueryProfile::ToJson document).
  Artifact& Json(std::string_view key, std::string raw) {
    return Cell(key, std::move(raw));
  }

  std::string ToJson() const {
    std::string out = "{\"experiment\":\"" + obs::JsonEscape(experiment_) +
                      "\",\"claim\":\"" + obs::JsonEscape(claim_) +
                      "\",\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r != 0) out += ',';
      out += '{';
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        if (c != 0) out += ',';
        out += '"';
        out += obs::JsonEscape(rows_[r][c].first);
        out += "\":";
        out += rows_[r][c].second;
      }
      out += '}';
    }
    out += "]}";
    return out;
  }

  /// Writes BENCH_<name>.json into $CISQP_BENCH_OUT_DIR (created when
  /// missing) or the working directory, and reports the path on stdout. A
  /// bench whose artifact cannot be written exits with status 1.
  void Write() const {
    const char* dir = std::getenv("CISQP_BENCH_OUT_DIR");
    std::string path = "BENCH_" + name_ + ".json";
    if (dir != nullptr && *dir != '\0') {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) Fail(dir, ec.message());
      path = std::string(dir) + "/" + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Fail(path, std::strerror(errno));
    const std::string json = ToJson() + "\n";
    const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !written) Fail(path, "write failed");
    std::printf("artifact: %s (%zu row(s))\n", path.c_str(), rows_.size());
  }

 private:
  [[noreturn]] static void Fail(const std::string& path,
                                const std::string& why) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), why.c_str());
    std::exit(EXIT_FAILURE);
  }

  Artifact& Cell(std::string_view key, std::string rendered) {
    if (rows_.empty()) rows_.emplace_back();
    rows_.back().emplace_back(std::string(key), std::move(rendered));
    return *this;
  }

  std::string name_;
  std::string experiment_;
  std::string claim_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace cisqp::bench
