// Shared plumbing of the benchmark binary: clocks, process counters,
// order statistics, the outputs digest, and the result record every
// workload fills in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (std::chrono::steady_clock on Linux),
/// the same clock Python's time.monotonic_ns() reads, so run.py can
/// subtract its spawn instant from the first-step instant.
std::int64_t NowNs();

/// Process CPU time (all threads), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy.
double Quantile(std::vector<double> values, double q);

/// Median of the values.
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Canonical outputs text: counts in decimal, doubles in hex-float, so
/// two runs agree iff their texts agree byte for byte.
class Digest {
 public:
  void Add(const char* key, double value);
  void Add(const char* key, std::uint64_t value);
  void Append(const std::string& text) { text_ += text; }
  const std::string& text() const { return text_; }
  /// FNV-1a 64 of the text, as 16 hex digits.
  std::string Hash() const;

 private:
  std::string text_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. main.cpp prints it.
struct RunResult {
  std::int64_t first_step_ns = 0;  ///< Instant the first timed step began.
  std::size_t attempted = 0;       ///< Timed steps.
  std::size_t failed = 0;          ///< Throws, non-finite, re-check mismatch.
  bool correct = true;             ///< Output sanity checks held.
  std::vector<std::string> problems;
  std::string digest_text;         ///< Digest::text() of the fixed prefix.
  std::string digest_hash;
  std::vector<Metric> metrics;     ///< End-to-end or per-layer set.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;  ///< Span dump path (traced runs); empty = none.
};

/// A stretch of the timed run: slots completed, wall and process CPU
/// seconds it took.
struct Window {
  double slots = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Fills the end-to-end host metrics shared by every workload:
/// throughput and CPU per slot as medians over the run's windows (a
/// burst of load from elsewhere on the host moves one window, not the
/// result), step latency quantiles, and peak RSS.
void AddHostMetrics(RunResult& result, const std::vector<double>& step_ms,
                    const std::vector<Window>& windows);

/// fail_frac (failed / attempted steps) and its complement ok_frac, the
/// end-to-end form that is never 0.
void AddFailMetrics(RunResult& result);

}  // namespace perfbench
