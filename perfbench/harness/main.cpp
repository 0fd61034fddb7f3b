// cisqp_perfbench: runs one benchmark workload against serve::FrontDoor.
//
//   cisqp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <file>] [--commit <id>]
//
// Prints run metadata, the outcome counts and every metric by name with its
// unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 2 without that line when the run cannot be made.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cisqp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] [--commit <id>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--spans") {
      config.span_path = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("hw_threads=%u compiler=\"%s %s\" build_type=%s commit=%s\n",
              std::thread::hardware_concurrency(),
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE, commit.c_str());
  std::fflush(stdout);

  perfbench::RunReport report;
  std::string error;
  if (!perfbench::RunWorkload(config, &report, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  const perfbench::Counts& c = report.counts;
  std::printf("clients=%zu setup_batches=%zu edits=%zu attempted=%llu "
              "answered=%llu refused=%llu failed=%llu\n",
              report.clients, report.setup_batches, report.edits,
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.answered),
              static_cast<unsigned long long>(c.refused),
              static_cast<unsigned long long>(c.failed));
  std::printf("peak_rss_since=%s\n",
              report.peak_rss_reset ? "setup" : "process_start");
  if (config.trace) {
    std::printf("spans_kept=%zu spans_dropped=%zu\n", report.spans_kept,
                report.spans_dropped);
  }
  for (const std::string& p : report.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  bool correct = report.correct && c.attempted > 0;
  std::string metrics;
  for (const perfbench::MetricValue& m : report.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::printf("problem: metric %s is not finite\n", m.name.c_str());
      correct = false;
      value = 0;
    }
    std::printf("metric %-38s %20.6f %s\n", m.name.c_str(), value,
                m.unit.c_str());
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + number +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed), metrics.c_str());
  return 0;
}
