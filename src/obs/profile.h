#pragma once

// Wall-clock profiler: the TIMING channel of the observability layer.
//
// Everything recorded here is scheduling- and machine-dependent — span
// durations, task steals, retry counts, checkpoint write times — so this
// channel is NEVER part of a byte-diff.  Deterministic happenings belong
// in the flight recorder (obs/trace.h) in virtual time instead.  The
// profiler exports Chrome trace_event JSON loadable in about://tracing
// or Perfetto, plus a sorted counter map merged into TIMING summaries.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace freerider::obs {

struct ProfileSpan {
  std::string name;
  std::string category;
  int tid = 0;        // worker id; 0 = main thread
  double ts_us = 0;   // start, microseconds since profiler epoch
  double dur_us = 0;
};

class Profiler {
 public:
  Profiler();

  // Microseconds on the monotonic clock since this profiler was created.
  double NowUs() const;

  void RecordSpan(std::string_view name, std::string_view category, int tid,
                  double ts_us, double dur_us);
  void AddCount(std::string_view name, std::uint64_t delta = 1);

  std::vector<ProfileSpan> Spans() const;
  // Sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> Counters() const;
  std::uint64_t dropped_events() const;

  void Reset();

  // {"traceEvents":[...]} — spans as ph:"X", counters as ph:"C" samples
  // at the end of the recording.
  std::string ChromeTraceJson() const;

  // Bounded memory: spans beyond the cap are dropped (counted).
  static constexpr std::size_t kMaxEvents = 1u << 16;

 private:
  mutable std::mutex mu_;
  std::int64_t epoch_ns_ = 0;
  std::vector<ProfileSpan> spans_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::uint64_t dropped_ = 0;

  std::uint64_t* CounterSlot(std::string_view name);
};

// Process-wide profiler used by the runtime hooks and bench harness.
Profiler& GlobalProfiler();

// RAII span against the global profiler.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, std::string_view category, int tid = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string name_;
  std::string category_;
  int tid_;
  double start_us_;
};

}  // namespace freerider::obs
