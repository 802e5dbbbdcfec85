#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Digest::Add(const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%a;", key, value);
  text_ += buf;
}

void Digest::Add(const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 ";", key, value);
  text_ += buf;
}

std::string Digest::Hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text_) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

void AddHostMetrics(RunResult& result, const std::vector<double>& step_ms,
                    const std::vector<Window>& windows) {
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  for (const Window& w : windows) {
    if (w.slots <= 0.0 || w.wall_s <= 0.0) continue;
    rate.push_back(w.slots / w.wall_s);
    cpu_ms.push_back(1e3 * w.cpu_s / w.slots);
  }
  result.Add("slots_per_s", Median(rate), "1/s");
  result.Add("cpu_ms_per_slot", Median(cpu_ms), "ms");
  result.Add("windows", static_cast<double>(rate.size()), "count");
  result.Add("step_ms_p50", Quantile(step_ms, 0.50), "ms");
  result.Add("step_ms_p99", Quantile(step_ms, 0.99), "ms");
  result.Add("steps", static_cast<double>(step_ms.size()), "count");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddFailMetrics(RunResult& result) {
  const double attempted =
      static_cast<double>(result.attempted > 0 ? result.attempted : 1);
  const double fail = static_cast<double>(result.failed) / attempted;
  result.Add("fail_frac", fail, "frac");
  result.Add("ok_frac", 1.0 - fail, "frac");
}

}  // namespace perfbench
