#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace freerider::obs {

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

Metric* MetricsRegistry::Slot(std::string_view name, MetricKind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Metric{}).first;
    it->second.name = it->first;
    it->second.kind = kind;
    if (kind == MetricKind::kHistogram) {
      it->second.buckets.assign(kNumHistogramBuckets, 0);
    }
  }
  return it->second.kind == kind ? &it->second : nullptr;
}

void MetricsRegistry::Count(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Metric* m = Slot(name, MetricKind::kCounter)) m->value += delta;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Metric* m = Slot(name, MetricKind::kGauge)) m->gauge = value;
}

void MetricsRegistry::Observe(std::string_view name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric* m = Slot(name, MetricKind::kHistogram);
  if (m == nullptr) return;
  if (m->value == 0 || value < m->min) m->min = value;
  if (m->value == 0 || value > m->max) m->max = value;
  ++m->value;
  m->sum += value;
  ++m->buckets[HistogramBucket(value)];
}

std::vector<Metric> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Metric> out;
  out.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) out.push_back(metric);
  return out;
}

std::string MetricsToJson(std::string_view label,
                          const std::vector<Metric>& metrics) {
  std::string out = "{\"metrics\":";
  AppendJsonString(out, label);
  out += ",\"values\":[";
  char buf[128];
  bool first = true;
  for (const Metric& m : metrics) {
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
  return MetricsToJson(label, registry.Snapshot());
}

}  // namespace freerider::obs
