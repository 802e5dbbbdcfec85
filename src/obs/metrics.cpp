#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/frame.h"

namespace freerider::obs {
namespace {

thread_local int tls_shard = -1;

}  // namespace

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    const unsigned char ch = static_cast<unsigned char>(c);
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void SetCurrentShard(int shard) { tls_shard = shard; }
int CurrentShard() { return tls_shard; }

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::size_t HistogramBucket(std::uint64_t value) {
  if (value == 0) return 0;
  std::size_t bucket = 1;
  while (value > 1 && bucket < kNumHistogramBuckets - 1) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

std::uint64_t HistogramBucketLow(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

MetricsRegistry::MetricsRegistry(std::size_t shards)
    : shards_(std::min(std::max<std::size_t>(shards, 1), kMaxShards)) {}

MetricsRegistry::Shard& MetricsRegistry::CurrentShardRef() {
  int shard = tls_shard;
  if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
    shard = 0;
  }
  return shards_[static_cast<std::size_t>(shard)];
}

MetricsRegistry::ShardMetric& MetricsRegistry::Slot(Shard& shard,
                                                    std::string_view name,
                                                    MetricKind kind) {
  auto it = shard.metrics.find(name);
  if (it == shard.metrics.end()) {
    it = shard.metrics.emplace(std::string(name), ShardMetric{}).first;
    it->second.kind = kind;
    if (kind == MetricKind::kHistogram) {
      it->second.buckets.assign(kNumHistogramBuckets, 0);
    }
  }
  return it->second;
}

void MetricsRegistry::Count(std::string_view name, std::uint64_t delta) {
  Shard& shard = CurrentShardRef();
  std::lock_guard<std::mutex> lock(shard.mu);
  ShardMetric& m = Slot(shard, name, MetricKind::kCounter);
  if (m.kind != MetricKind::kCounter) return;
  m.value += delta;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  Shard& shard = CurrentShardRef();
  std::lock_guard<std::mutex> lock(shard.mu);
  ShardMetric& m = Slot(shard, name, MetricKind::kGauge);
  if (m.kind != MetricKind::kGauge) return;
  m.gauge = value;
  m.gauge_set = true;
}

void MetricsRegistry::Observe(std::string_view name, std::uint64_t value) {
  Shard& shard = CurrentShardRef();
  std::lock_guard<std::mutex> lock(shard.mu);
  ShardMetric& m = Slot(shard, name, MetricKind::kHistogram);
  if (m.kind != MetricKind::kHistogram) return;
  if (m.value == 0 || value < m.min) m.min = value;
  if (m.value == 0 || value > m.max) m.max = value;
  ++m.value;
  m.sum += value;
  ++m.buckets[HistogramBucket(value)];
}

std::vector<MergedMetric> MetricsRegistry::Merge() const {
  // Union of names first, so output order is sorted and shard-independent.
  std::set<std::string> names;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, metric] : shard.metrics) names.insert(name);
  }
  std::vector<MergedMetric> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    MergedMetric merged;
    merged.name = name;
    bool first = true;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.metrics.find(name);
      if (it == shard.metrics.end()) continue;
      const ShardMetric& m = it->second;
      if (first) {
        merged.kind = m.kind;
        if (m.kind == MetricKind::kHistogram) {
          merged.buckets.assign(kNumHistogramBuckets, 0);
        }
        first = false;
      }
      if (m.kind != merged.kind) continue;  // kind conflict: lowest wins
      switch (m.kind) {
        case MetricKind::kCounter:
          merged.value += m.value;
          break;
        case MetricKind::kGauge:
          if (m.gauge_set) merged.gauge = m.gauge;
          break;
        case MetricKind::kHistogram:
          if (m.value > 0) {
            if (merged.value == 0 || m.min < merged.min) merged.min = m.min;
            if (merged.value == 0 || m.max > merged.max) merged.max = m.max;
          }
          merged.value += m.value;
          merged.sum += m.sum;
          for (std::size_t i = 0; i < kNumHistogramBuckets; ++i) {
            merged.buckets[i] += m.buckets[i];
          }
          break;
      }
    }
    out.push_back(std::move(merged));
  }
  return out;
}

std::string MetricsToJson(std::string_view label,
                          const std::vector<MergedMetric>& metrics) {
  std::string out = "{\"metrics\":";
  AppendJsonString(out, label);
  out += ",\"values\":[";
  char buf[128];
  bool first = true;
  for (const MergedMetric& m : metrics) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, m.name);
    out += ",\"kind\":\"";
    out += MetricKindName(m.kind);
    out += "\"";
    switch (m.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof buf, ",\"value\":%" PRIu64, m.value);
        out += buf;
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof buf, ",\"value\":%.17g", m.gauge);
        out += buf;
        break;
      case MetricKind::kHistogram:
        std::snprintf(buf, sizeof buf,
                      ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                      ",\"min\":%" PRIu64 ",\"max\":%" PRIu64 ",\"buckets\":[",
                      m.value, m.sum, m.min, m.max);
        out += buf;
        {
          bool first_bucket = true;
          for (std::size_t i = 0; i < m.buckets.size(); ++i) {
            if (m.buckets[i] == 0) continue;
            if (!first_bucket) out.push_back(',');
            first_bucket = false;
            std::snprintf(buf, sizeof buf, "[%" PRIu64 ",%" PRIu64 "]",
                          HistogramBucketLow(i), m.buckets[i]);
            out += buf;
          }
        }
        out.push_back(']');
        break;
    }
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

std::string MetricsToJson(std::string_view label,
                          const MetricsRegistry& registry) {
  return MetricsToJson(label, registry.Merge());
}

std::string SerializeMetrics(std::string_view label,
                             const std::vector<MergedMetric>& metrics) {
  std::string out;
  std::string payload;
  payload.push_back('M');
  AppendU32(payload, kMetricsMagic);
  AppendU32(payload, kMetricsVersion);
  AppendStr(payload, label);
  AppendU64(payload, metrics.size());
  AppendFrame(out, payload);
  for (const MergedMetric& m : metrics) {
    payload.clear();
    payload.push_back('V');
    AppendStr(payload, m.name);
    payload.push_back(static_cast<char>(m.kind));
    AppendU64(payload, m.value);
    // Gauge doubles travel as their IEEE-754 bit pattern: byte-exact.
    std::uint64_t gauge_bits = 0;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::memcpy(&gauge_bits, &m.gauge, sizeof gauge_bits);
    AppendU64(payload, gauge_bits);
    AppendU64(payload, m.sum);
    AppendU64(payload, m.min);
    AppendU64(payload, m.max);
    AppendU64(payload, m.buckets.size());
    for (std::uint64_t bucket : m.buckets) AppendU64(payload, bucket);
    AppendFrame(out, payload);
  }
  return out;
}

MetricsDecodeResult DecodeMetrics(std::string_view bytes) {
  MetricsDecodeResult result;
  std::size_t pos = 0;
  bool have_header = false;
  while (pos < bytes.size()) {
    // A torn tail (kNeedMore on the whole file) ends the prefix like a
    // corrupt frame does.
    const ParsedFrame frame = ParseFrame(bytes.substr(pos));
    if (frame.status != FrameStatus::kFrame) break;
    pos += frame.size;
    ByteReader r(frame.payload);
    std::uint8_t type = 0;
    if (!r.ReadU8(type)) break;
    if (type == 'M') {
      if (have_header) break;  // second header: corrupt
      std::uint32_t magic = 0;
      std::uint32_t version = 0;
      std::uint64_t count = 0;
      if (!r.ReadU32(magic) || magic != kMetricsMagic ||
          !r.ReadU32(version) || version != kMetricsVersion ||
          !r.ReadStr(result.label) || !r.ReadU64(count) || !r.AtEnd()) {
        break;
      }
      have_header = true;
    } else if (type == 'V') {
      if (!have_header) break;
      MergedMetric m;
      std::uint8_t kind = 0;
      std::uint64_t gauge_bits = 0;
      std::uint64_t bucket_count = 0;
      if (!r.ReadStr(m.name) || !r.ReadU8(kind) || !r.ReadU64(m.value) ||
          !r.ReadU64(gauge_bits) || !r.ReadU64(m.sum) || !r.ReadU64(m.min) ||
          !r.ReadU64(m.max) || !r.ReadU64(bucket_count) ||
          bucket_count > kNumHistogramBuckets) {
        break;
      }
      m.kind = static_cast<MetricKind>(kind);
      std::memcpy(&m.gauge, &gauge_bits, sizeof m.gauge);
      m.buckets.resize(static_cast<std::size_t>(bucket_count));
      bool events_ok = true;
      for (std::uint64_t i = 0; i < bucket_count; ++i) {
        if (!r.ReadU64(m.buckets[static_cast<std::size_t>(i)])) {
          events_ok = false;
          break;
        }
      }
      if (!events_ok || !r.AtEnd()) break;
      result.metrics.push_back(std::move(m));
    } else {
      break;
    }
  }
  if (pos < bytes.size()) {
    result.salvaged = true;
    result.dropped_bytes = bytes.size() - pos;
  }
  result.ok = have_header;
  if (!result.ok) result.error = "no valid metrics header";
  return result;
}

}  // namespace freerider::obs
