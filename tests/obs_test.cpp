// Observability subsystem (src/obs/): metrics registry determinism,
// flight-recorder ring + codec round-trips, structure-aware decoder
// fuzzing, profiler Chrome-trace shape, and the stress-campaign trace
// export the benches byte-diff in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/frame.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "sim/stress.h"

namespace freerider {
namespace {

// ---- Metrics registry -------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramMerge) {
  obs::MetricsRegistry registry;
  registry.Count("frames", 3);
  registry.SetGauge("ratio", 0.25);
  registry.Observe("latency", 5);
  registry.Count("frames", 7);
  registry.Observe("latency", 9);
  // A name keeps the kind it was first recorded under.
  registry.Observe("frames", 100);
  registry.Count("ratio", 1);

  const std::vector<obs::Metric> metrics = registry.Snapshot();
  ASSERT_EQ(metrics.size(), 3u);  // sorted: frames, latency, ratio
  EXPECT_EQ(metrics[0].name, "frames");
  EXPECT_EQ(metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(metrics[0].value, 10u);
  EXPECT_EQ(metrics[1].name, "latency");
  EXPECT_EQ(metrics[1].kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(metrics[1].value, 2u);
  EXPECT_EQ(metrics[1].sum, 14u);
  EXPECT_EQ(metrics[1].min, 5u);
  EXPECT_EQ(metrics[1].max, 9u);
  EXPECT_EQ(metrics[2].name, "ratio");
  EXPECT_EQ(metrics[2].kind, obs::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(metrics[2].gauge, 0.25);
}

// The determinism claim itself: the identical deterministic workload,
// run serial and run on 8 workers (tasks stolen who-knows-how), must
// produce byte-identical merged exports.
TEST(MetricsTest, MergeIsByteIdenticalAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    runtime::Executor executor(threads);
    obs::MetricsRegistry registry;
    executor.ParallelFor(256, [&](std::size_t i) {
      registry.Count("tasks");
      registry.Count("work", i);
      registry.Observe("size", i * i);
      if (i % 3 == 0) registry.Count("thirds");
    });
    return obs::MetricsToJson("x", registry);
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"tasks\""), std::string::npos);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly the value 0.
  EXPECT_EQ(obs::HistogramBucket(0), 0u);
  EXPECT_EQ(obs::HistogramBucketLow(0), 0u);
  // Bucket i (i >= 1) holds [2^(i-1), 2^i): both edges of each power.
  EXPECT_EQ(obs::HistogramBucket(1), 1u);
  EXPECT_EQ(obs::HistogramBucket(2), 2u);
  EXPECT_EQ(obs::HistogramBucket(3), 2u);
  EXPECT_EQ(obs::HistogramBucket(4), 3u);
  for (std::size_t i = 1; i < 63; ++i) {
    const std::uint64_t low = std::uint64_t{1} << (i - 1);
    EXPECT_EQ(obs::HistogramBucket(low), i) << "low edge of bucket " << i;
    EXPECT_EQ(obs::HistogramBucket((low << 1) - 1), i)
        << "high edge of bucket " << i;
    EXPECT_EQ(obs::HistogramBucketLow(i), low);
  }
  // The top bucket absorbs everything from 2^62 up, including the max.
  EXPECT_EQ(obs::HistogramBucket(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(obs::HistogramBucket(std::numeric_limits<std::uint64_t>::max()),
            63u);
  EXPECT_EQ(obs::HistogramBucketLow(63), std::uint64_t{1} << 62);
}

TEST(MetricsTest, JsonExportEscapesAndIsStable) {
  obs::MetricsRegistry registry;
  registry.Count("weird\"name\\with\njunk", 1);
  const std::string json = obs::MetricsToJson("l", registry);
  EXPECT_NE(json.find("weird\\\"name\\\\with\\u000ajunk"), std::string::npos)
      << json;
}

// ---- Trace ring -------------------------------------------------------

obs::TraceEvent Ev(std::uint32_t round, std::uint16_t slot,
                   obs::EventKind kind, std::uint8_t tag, std::uint64_t a,
                   std::uint64_t b) {
  return obs::TraceEvent{round, slot, kind, tag, a, b};
}

TEST(TraceRingTest, KeepsNewestAndCountsDrops) {
  obs::TraceRing ring(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ring.Record(Ev(i, 0, obs::EventKind::kFrameTx, 1, i, 0));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<obs::TraceEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].round, 6u + i) << "oldest-to-newest order";
  }
}

TEST(TraceRingTest, BinaryCodecRoundTripsIncludingDropCount) {
  obs::TraceRing ring(3);
  for (std::uint32_t i = 0; i < 8; ++i) {
    ring.Record(Ev(i, static_cast<std::uint16_t>(i % 5),
                   obs::EventKind::kArqResend, 2, i * 7, i));
  }
  const std::string bytes = obs::SerializeTrace("t", ring);
  const obs::TraceDecodeResult decoded = obs::DecodeTraces(bytes);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.traces.size(), 1u);
  const obs::TraceRing& back = decoded.traces[0].ring;
  EXPECT_EQ(decoded.traces[0].name, "t");
  EXPECT_EQ(back.capacity(), 3u);
  EXPECT_EQ(back.recorded(), 8u);
  EXPECT_EQ(back.dropped(), 5u);
  EXPECT_EQ(back.Events(), ring.Events());
  // Round-trip identity — the currency of the trace_dump --bin check.
  EXPECT_EQ(obs::SerializeTraces(decoded.traces), bytes);
}

TEST(TraceRingTest, MultipleNamedRingsConcatenate) {
  obs::TraceRing a(8), b(8);
  a.Record(Ev(1, 0, obs::EventKind::kFrameTx, 1, 0, 0));
  b.Record(Ev(2, 1, obs::EventKind::kQuarantine, 3, 1, 0));
  b.Record(Ev(3, obs::kNoSlot, obs::EventKind::kResync, 3, 0, 0));
  const std::string bytes =
      obs::SerializeTraces({{"first", a}, {"second", b}});
  const obs::TraceDecodeResult decoded = obs::DecodeTraces(bytes);
  ASSERT_TRUE(decoded.ok);
  ASSERT_EQ(decoded.traces.size(), 2u);
  EXPECT_EQ(decoded.traces[0].name, "first");
  EXPECT_EQ(decoded.traces[1].name, "second");
  EXPECT_EQ(decoded.traces[1].ring.size(), 2u);
}

TEST(TraceQueryTest, FiltersByRoundTagAndKind) {
  obs::TraceQuery query;
  query.from_round = 10;
  query.to_round = 20;
  query.tag = 3;
  query.kind = static_cast<int>(obs::EventKind::kFrameRx);
  EXPECT_TRUE(
      Matches(query, Ev(10, 0, obs::EventKind::kFrameRx, 3, 0, 0)));
  EXPECT_TRUE(
      Matches(query, Ev(20, 0, obs::EventKind::kFrameRx, 3, 0, 0)));
  EXPECT_FALSE(
      Matches(query, Ev(9, 0, obs::EventKind::kFrameRx, 3, 0, 0)));
  EXPECT_FALSE(
      Matches(query, Ev(21, 0, obs::EventKind::kFrameRx, 3, 0, 0)));
  EXPECT_FALSE(
      Matches(query, Ev(15, 0, obs::EventKind::kFrameRx, 4, 0, 0)));
  EXPECT_FALSE(
      Matches(query, Ev(15, 0, obs::EventKind::kFrameTx, 3, 0, 0)));
}

TEST(TraceJsonlTest, DeterministicLinesAndNullSlot) {
  obs::TraceRing ring(4);
  ring.Record(Ev(7, 2, obs::EventKind::kFrameTx, 1, 42, 3));
  ring.Record(Ev(8, obs::kNoSlot, obs::EventKind::kArqExpire, 2, 5, 16));
  const std::string jsonl = obs::TraceToJsonl("n", ring);
  EXPECT_EQ(jsonl,
            "{\"trace\":\"n\",\"round\":7,\"slot\":2,\"kind\":\"frame_tx\","
            "\"tag\":1,\"a\":42,\"b\":3}\n"
            "{\"trace\":\"n\",\"round\":8,\"slot\":null,"
            "\"kind\":\"arq_expire\",\"tag\":2,\"a\":5,\"b\":16}\n");
}

TEST(TraceKindNamesTest, RoundTripThroughNames) {
  for (int k = 1; k <= 14; ++k) {
    const char* name = obs::EventKindName(static_cast<obs::EventKind>(k));
    EXPECT_STRNE(name, "unknown") << k;
    EXPECT_EQ(obs::EventKindFromName(name), k) << name;
  }
  EXPECT_EQ(obs::EventKindFromName("definitely_not_a_kind"), -1);
}

// ---- Structure-aware decoder fuzz ------------------------------------

std::string SampleTraceBytes() {
  obs::TraceRing ring(6);
  for (std::uint32_t i = 0; i < 9; ++i) {
    ring.Record(Ev(i, static_cast<std::uint16_t>(i),
                   static_cast<obs::EventKind>(1 + (i % 14)),
                   static_cast<std::uint8_t>(i), i * 1000003ull, ~i));
  }
  return obs::SerializeTrace("fuzz", ring);
}

// Truncation at every byte: the decoder must never crash or over-read,
// and any prefix that still contains the first full header must decode
// ok (salvaged), never reporting more events than the original held.
TEST(TraceFuzzTest, TruncationAtEveryByteIsSafe) {
  const std::string bytes = SampleTraceBytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const obs::TraceDecodeResult decoded =
        obs::DecodeTraces(std::string_view(bytes).substr(0, cut));
    if (decoded.ok && !decoded.traces.empty()) {
      EXPECT_LE(decoded.traces[0].ring.size(), 6u) << "cut=" << cut;
    }
  }
}

// Single-bit flips across the whole encoding: decode must stay memory-
// safe; the CRC framing turns nearly all flips into clean salvage.
TEST(TraceFuzzTest, BitFlipsAreSafe) {
  const std::string bytes = SampleTraceBytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      const obs::TraceDecodeResult decoded = obs::DecodeTraces(mutated);
      (void)decoded;  // verdict free-form; surviving is the contract
    }
  }
}

// A hostile header must not make the decoder allocate or loop on
// attacker-chosen sizes: capacity is bounded by kMaxCapacity and the
// phantom-drop count is restored arithmetically, not replayed.
TEST(TraceFuzzTest, HostileHeaderCountsAreRejectedOrBounded) {
  std::string payload;
  payload.push_back('H');
  AppendU32(payload, obs::kTraceMagic);
  AppendU32(payload, obs::kTraceVersion);
  AppendStr(payload, "evil");
  AppendU64(payload, ~0ull);  // capacity far past kMaxCapacity
  AppendU64(payload, ~0ull);  // recorded: 2^64-1 phantom events
  std::string bytes;
  AppendFrame(bytes, payload);
  const obs::TraceDecodeResult decoded = obs::DecodeTraces(bytes);
  EXPECT_FALSE(decoded.ok);
}

// ---- Profiler ---------------------------------------------------------

TEST(ProfilerTest, ChromeTraceJsonShape) {
  obs::Profiler profiler;
  profiler.RecordSpan("span_a", "cat", 0, 10.0, 5.0);
  profiler.AddCount("things", 3);
  const std::string json = profiler.ChromeTraceJson();
  // Minimal trace_event schema: a traceEvents array whose entries all
  // carry name/ph/ts/pid/tid, spans add dur, counters add args.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"span_a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST(ProfilerTest, ScopedSpanRecordsOnDestruction) {
  obs::Profiler& profiler = obs::GlobalProfiler();
  profiler.Reset();
  { obs::ScopedSpan span("scoped_work", "test"); }
  ASSERT_EQ(profiler.Spans().size(), 1u);
  EXPECT_EQ(profiler.Spans()[0].name, "scoped_work");
  profiler.Reset();
}

TEST(ProfilerTest, ExecutorRecordsSchedulingCounters) {
  obs::Profiler& profiler = obs::GlobalProfiler();
  profiler.Reset();
  runtime::Executor executor(2);
  executor.ParallelFor(64, [](std::size_t) {});
  bool saw_tasks = false;
  for (const auto& counter : profiler.Counters()) {
    if (counter.first == "executor.tasks_executed") {
      saw_tasks = counter.second == 64;
    }
  }
  EXPECT_TRUE(saw_tasks);
  profiler.Reset();
}

// ---- Campaign integration --------------------------------------------

sim::StressConfig SmallStress() {
  sim::StressConfig config;
  config.seed = 99;
  config.num_tags = 2;
  config.rounds = 48;
  config.drain_rounds = 32;
  config.trace_capacity = 512;
  return config;
}

TEST(StressTraceTest, TraceIsDeterministicAndRoundTrips) {
  const sim::StressResult first = sim::RunStress(SmallStress());
  const sim::StressResult second = sim::RunStress(SmallStress());
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);

  const obs::TraceDecodeResult decoded = obs::DecodeTraces(first.trace);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.traces.size(), 1u);
  EXPECT_EQ(decoded.traces[0].name, "stress");
  EXPECT_GT(decoded.traces[0].ring.size(), 0u);
  // The campaign recorded actual traffic, not just bookkeeping.
  bool saw_tx = false;
  for (const obs::TraceEvent& e : decoded.traces[0].ring.Events()) {
    saw_tx = saw_tx || e.kind == obs::EventKind::kFrameTx;
  }
  EXPECT_TRUE(saw_tx);

  // The trace rides the checkpoint payload byte-exactly.
  const std::string payload = sim::SerializeStressResult(first);
  sim::StressResult restored;
  ASSERT_TRUE(sim::DeserializeStressResult(payload, &restored));
  EXPECT_EQ(restored.trace, first.trace);
  EXPECT_EQ(restored.digest, first.digest);
}

TEST(StressTraceTest, ZeroCapacityDisablesTracing) {
  sim::StressConfig config = SmallStress();
  config.trace_capacity = 0;
  const sim::StressResult result = sim::RunStress(config);
  EXPECT_TRUE(result.trace.empty());
  // And the campaign outcome is identical with tracing on or off: the
  // recorder observes, it never steers.
  EXPECT_EQ(result.digest, sim::RunStress(SmallStress()).digest);
}

}  // namespace
}  // namespace freerider
