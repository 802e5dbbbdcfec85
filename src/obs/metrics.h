#pragma once

// Metrics registry: one mutex-guarded, name-sorted map.
//
// Every accumulating value is an unsigned 64-bit integer — counter
// totals and histogram count/sum/min/max are associative and
// commutative over u64 — so a snapshot is byte-identical whatever
// thread recorded which value, in whatever order.  The one exception
// is gauges (double, last write wins): their value depends on write
// order, so they belong in serial code.  Campaign metrics are recorded
// by the bench mains after the runner's barrier, from the folded
// results, so a restored or remotely computed task contributes exactly
// what a locally computed one does.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace freerider::obs {

enum class MetricKind : std::uint8_t {
  kCounter = 1,
  kGauge = 2,
  kHistogram = 3,
};

const char* MetricKindName(MetricKind kind);

// Histograms use fixed log2 buckets so bucketing needs no configuration:
// bucket 0 holds the value 0, bucket i (1..63) holds [2^(i-1), 2^i).
inline constexpr std::size_t kNumHistogramBuckets = 64;

std::size_t HistogramBucket(std::uint64_t value);
// Inclusive lower bound of a bucket (0 for bucket 0, 2^(i-1) otherwise).
std::uint64_t HistogramBucketLow(std::size_t bucket);

// One metric, as exported.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;   // counter total or histogram sample count
  double gauge = 0.0;        // gauges only
  std::uint64_t sum = 0;     // histograms only
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // histograms only; dense, 64 wide

  bool operator==(const Metric&) const = default;
};

// Safe to call from any thread.  A name keeps the kind it was first
// recorded under; a later record of another kind is ignored.
class MetricsRegistry {
 public:
  void Count(std::string_view name, std::uint64_t delta = 1);
  void SetGauge(std::string_view name, double value);
  void Observe(std::string_view name, std::uint64_t value);

  // Every metric, sorted by name.
  std::vector<Metric> Snapshot() const;

 private:
  // The metric `name`, created as `kind` if new; null if it was first
  // recorded under another kind.  Caller holds mu_.
  Metric* Slot(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Metric, std::less<>> metrics_;
};

// ---- Exporters --------------------------------------------------------

// Append `s` as a JSON string: quoted, with `"` and `\` escaped and
// bytes below 0x20 written as \u00XX. The escaper of every obs JSON
// exporter (metrics and profile spans).
void AppendJsonString(std::string& out, std::string_view s);

// Deterministic JSON document:
// {"metrics":"<label>","values":[{"name":...,"kind":...,...},...]}
// Histogram buckets are exported sparse as [[low,count],...].  Gauges are
// printed with %.17g (bit-stable for identical doubles).
std::string MetricsToJson(std::string_view label,
                          const std::vector<Metric>& metrics);
std::string MetricsToJson(std::string_view label,
                          const MetricsRegistry& registry);

}  // namespace freerider::obs
