#pragma once

// Sharded metrics registry with a deterministic merge.
//
// Each executor worker writes into its own shard (selected through the
// thread-local set by SetCurrentShard), so recording is contention-free
// under the work-stealing executor.  Merging folds the shards in fixed
// shard order 0..N-1 and reports metrics in sorted-name order, and every
// accumulating value is an unsigned 64-bit integer — counter totals and
// histogram count/sum/min/max are associative and commutative over u64,
// so the merged snapshot is byte-identical no matter which worker
// executed which task.  The one escape hatch is gauges (double,
// last-write-wins within a shard, folded in shard order): they are only
// deterministic if the shard assignment of their writers is, so gauges
// belong in single-shard code such as bench mains, not in stolen tasks.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace freerider::obs {

// Selects the shard that Count/Observe/SetGauge on this thread write to.
// The executor points each worker at shard `worker_id`; unset threads
// fall back to shard 0.  Values are clamped into range at record time.
void SetCurrentShard(int shard);
int CurrentShard();

enum class MetricKind : std::uint8_t {
  kCounter = 1,
  kGauge = 2,
  kHistogram = 3,
};

const char* MetricKindName(MetricKind kind);

// Histograms use fixed log2 buckets so bucketing needs no configuration
// and merging is index-wise addition: bucket 0 holds the value 0, bucket
// i (1..63) holds [2^(i-1), 2^i).
inline constexpr std::size_t kNumHistogramBuckets = 64;

std::size_t HistogramBucket(std::uint64_t value);
// Inclusive lower bound of a bucket (0 for bucket 0, 2^(i-1) otherwise).
std::uint64_t HistogramBucketLow(std::size_t bucket);

// One fully merged metric, as exported.
struct MergedMetric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;   // counter total or histogram sample count
  double gauge = 0.0;        // gauges only
  std::uint64_t sum = 0;     // histograms only
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // histograms only; dense, 64 wide

  bool operator==(const MergedMetric&) const = default;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t shards = kDefaultShards);

  // Record into the calling thread's current shard.
  void Count(std::string_view name, std::uint64_t delta = 1);
  void SetGauge(std::string_view name, double value);
  void Observe(std::string_view name, std::uint64_t value);

  std::size_t shard_count() const { return shards_.size(); }

  // Deterministic snapshot: shards folded in order, names sorted.  If the
  // same name was recorded with different kinds, the kind seen in the
  // lowest shard wins and mismatched records in later shards are ignored.
  std::vector<MergedMetric> Merge() const;

  static constexpr std::size_t kDefaultShards = 32;
  static constexpr std::size_t kMaxShards = 256;

 private:
  struct ShardMetric {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t value = 0;
    double gauge = 0.0;
    bool gauge_set = false;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::uint64_t> buckets;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, ShardMetric, std::less<>> metrics;
  };

  Shard& CurrentShardRef();
  ShardMetric& Slot(Shard& shard, std::string_view name, MetricKind kind);

  std::vector<Shard> shards_;
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
                          const std::vector<MergedMetric>& metrics);
std::string MetricsToJson(std::string_view label,
                          const MetricsRegistry& registry);

// Binary snapshot in the shared frame format (see common/frame.h):
// header frame 'M' + magic/version/label, then one frame per metric.
// Same salvage behavior as the trace codec.
inline constexpr std::uint32_t kMetricsMagic = 0x4D4F5242;  // 'BROM' LE
inline constexpr std::uint32_t kMetricsVersion = 1;

std::string SerializeMetrics(std::string_view label,
                             const std::vector<MergedMetric>& metrics);

struct MetricsDecodeResult {
  bool ok = false;
  bool salvaged = false;
  std::size_t dropped_bytes = 0;
  std::string error;
  std::string label;
  std::vector<MergedMetric> metrics;
};

MetricsDecodeResult DecodeMetrics(std::string_view bytes);

}  // namespace freerider::obs
