// Summary statistics for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile: a tail figure
/// resting on fewer is noise, so the benchmark does not report it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` (0 < q <= 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond that rank.
inline std::optional<double> Percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));  // 1-based
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (n - 1 - index < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

/// The highest percentile up to `q` that has kMinSamplesBeyond samples
/// beyond it; 0 when there are too few samples for any. Per-layer tails use
/// this, since a layer may see only part of a run's requests.
inline double TailPercentile(const std::vector<double>& samples, double q) {
  if (std::optional<double> exact = Percentile(samples, q)) return *exact;
  if (samples.size() <= kMinSamplesBeyond) return 0.0;
  const double highest = static_cast<double>(samples.size() -
                                             kMinSamplesBeyond) /
                         static_cast<double>(samples.size());
  return Percentile(samples, highest).value_or(0.0);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Median of a small sample set (set-up repeats); 0 when empty.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A fixed-size uniform sample of a stream of (value, time) pairs
/// (Vitter's algorithm R). Its memory is allocated and touched up front, so
/// the harness's footprint does not grow with the program's throughput and
/// peak_rss_mb measures the program.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        values_(capacity_, 0.0),
        times_(capacity_, 0.0),
        state_(seed) {
    values_.clear();
    times_.clear();
  }

  void Add(double value, double time = 0) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      times_.push_back(time);
      return;
    }
    const std::uint64_t slot = Next() % seen_;
    if (slot < capacity_) {
      values_[slot] = value;
      times_[slot] = time;
    }
  }

  std::uint64_t seen() const { return seen_; }
  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& times() const { return times_; }

 private:
  std::uint64_t Next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::size_t capacity_;
  std::vector<double> values_;
  std::vector<double> times_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

/// Throughput and median latency of a timed phase, each taken as the median
/// over equal time windows, so a short stall on a shared machine moves one
/// window rather than the whole figure.
struct Windowed {
  double rate_per_s = 0;
  double p50 = 0;
};

/// `counts[w]` is the number of requests completed in window w of a phase
/// `span_s` seconds long; `latency[i]` is a sampled latency and `done_s[i]`
/// its completion time in seconds from the phase start.
inline Windowed WindowedMedians(const std::vector<std::uint64_t>& counts,
                                const std::vector<double>& done_s,
                                const std::vector<double>& latency,
                                double span_s) {
  Windowed out;
  const std::size_t windows = counts.size();
  if (windows == 0 || span_s <= 0) return out;
  const double width = span_s / static_cast<double>(windows);
  std::vector<std::vector<double>> per(windows);
  for (std::size_t i = 0; i < done_s.size() && i < latency.size(); ++i) {
    const double t = done_s[i];
    if (t < 0 || t >= span_s) continue;
    per[std::min(windows - 1, static_cast<std::size_t>(t / width))].push_back(
        latency[i]);
  }
  std::vector<double> rates, p50s;
  for (std::size_t w = 0; w < windows; ++w) {
    rates.push_back(static_cast<double>(counts[w]) / width);
    if (!per[w].empty()) p50s.push_back(Median(per[w]));
  }
  out.rate_per_s = Median(rates);
  out.p50 = Median(p50s);
  return out;
}

/// Percentile `q` of sampled latencies as the median over time windows
/// that each hold about `per_window` samples (at most one window per
/// second of `span_s`, at least one); windows whose percentile lacks
/// kMinSamplesBeyond samples beyond it are skipped. nullopt when none has.
inline std::optional<double> WindowedPercentile(
    const std::vector<double>& done_s, const std::vector<double>& latency,
    double span_s, double q, std::size_t per_window) {
  const std::size_t n = std::min(done_s.size(), latency.size());
  const std::size_t windows = std::clamp<std::size_t>(
      n / std::max<std::size_t>(per_window, 1), 1,
      std::max<std::size_t>(1, static_cast<std::size_t>(span_s)));
  const double width = span_s / static_cast<double>(windows);
  std::vector<std::vector<double>> per(windows);
  for (std::size_t i = 0; i < n; ++i) {
    if (done_s[i] < 0 || done_s[i] >= span_s) continue;
    per[std::min(windows - 1, static_cast<std::size_t>(done_s[i] / width))]
        .push_back(latency[i]);
  }
  std::vector<double> tails;
  for (std::vector<double>& window : per) {
    if (std::optional<double> p = Percentile(std::move(window), q)) {
      tails.push_back(*p);
    }
  }
  if (tails.empty()) return std::nullopt;
  return Median(tails);
}

/// Outcome counts of one run. Every attempted request is exactly one of
/// answered (rows returned), refused (a typed kInfeasible verdict) or failed
/// (any other status, an admission rejection, or a wrong answer).
struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;

  bool Consistent() const { return attempted == answered + refused + failed; }

  Counts& operator+=(const Counts& o) {
    attempted += o.attempted;
    answered += o.answered;
    refused += o.refused;
    failed += o.failed;
    return *this;
  }
};

}  // namespace perfbench
