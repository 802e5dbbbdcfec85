#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"

namespace freerider::obs {
namespace {

std::int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Profiler::Profiler() : epoch_ns_(MonotonicNowNs()) {}

double Profiler::NowUs() const {
  return static_cast<double>(MonotonicNowNs() - epoch_ns_) / 1e3;
}

void Profiler::RecordSpan(std::string_view name, std::string_view category,
                          int tid, double ts_us, double dur_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  spans_.push_back(ProfileSpan{std::string(name), std::string(category), tid,
                               ts_us, dur_us});
}

std::uint64_t* Profiler::CounterSlot(std::string_view name) {
  for (auto& [counter_name, value] : counters_) {
    if (counter_name == name) return &value;
  }
  counters_.emplace_back(std::string(name), 0);
  return &counters_.back().second;
}

void Profiler::AddCount(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  *CounterSlot(name) += delta;
}

std::vector<ProfileSpan> Profiler::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, std::uint64_t>> Profiler::Counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  auto out = counters_;
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Profiler::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  counters_.clear();
  dropped_ = 0;
  epoch_ns_ = MonotonicNowNs();
}

std::string Profiler::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[128];
  bool first = true;
  double last_ts = 0;
  for (const ProfileSpan& span : spans_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, span.name);
    out += ",\"cat\":";
    AppendJsonString(out, span.category);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d}",
                  span.ts_us, span.dur_us, span.tid);
    out += buf;
    last_ts = std::max(last_ts, span.ts_us + span.dur_us);
  }
  auto counters = counters_;
  std::sort(counters.begin(), counters.end());
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, name);
    std::snprintf(buf, sizeof buf,
                  ",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                  "\"tid\":0,\"args\":{\"value\":%" PRIu64 "}}",
                  last_ts, value);
    out += buf;
  }
  out += "]}\n";
  return out;
}

Profiler& GlobalProfiler() {
  static Profiler profiler;
  return profiler;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category,
                       int tid)
    : name_(name),
      category_(category),
      tid_(tid),
      start_us_(GlobalProfiler().NowUs()) {}

ScopedSpan::~ScopedSpan() {
  Profiler& profiler = GlobalProfiler();
  profiler.RecordSpan(name_, category_, tid_, start_us_,
                      profiler.NowUs() - start_us_);
}

}  // namespace freerider::obs
