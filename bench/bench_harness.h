// Shared emission harness for the bench executables.
//
// Every bench writes the same artifact family into --out-dir:
//
//   BENCH_<slug>.json     deterministic results — CI byte-diffs these
//                         across --threads values and kill/resume;
//   TIMING_<slug>.json    wall-clock/scheduling telemetry — never
//                         byte-diffed (echoed to stderr for humans);
//   METRICS_<slug>.json   merged obs::MetricsRegistry snapshot —
//                         deterministic, byte-diffed like BENCH;
//   TRACE_<slug>.bin      flight-recorder rings (obs binary codec) —
//   TRACE_<slug>.jsonl    deterministic, byte-diffed like BENCH; the
//                         .jsonl is the same recording for greppers
//                         and tools/trace_dump round-trip checks;
//   PROFILE_<slug>.json   Chrome trace_event dump of the global
//                         profiler — wall clock, never byte-diffed.
//
// The determinism split is the whole design: BENCH/METRICS/TRACE may
// depend only on campaign configs (virtual time), TIMING/PROFILE own
// everything scheduling-dependent. A bench that mixes the two breaks
// the CI byte-diff — put wall-clock data in TIMING/PROFILE, always.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace freerider::bench {

inline bool WriteTextFile(const std::string& path,
                          const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) {
    std::fprintf(stderr,
                 "warning: could not write %s (does the directory exist?)\n",
                 path.c_str());
    return false;
  }
  return true;
}

inline bool WriteBinaryFile(const std::string& path,
                            const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  if (!out) {
    std::fprintf(stderr,
                 "warning: could not write %s (does the directory exist?)\n",
                 path.c_str());
    return false;
  }
  return true;
}

/// Consumes --out-dir DIR / --out-dir=DIR from argv (compacting it);
/// returns "." when absent.
inline std::string OutDirFromArgs(int& argc, char** argv) {
  std::string out_dir = ".";
  cli::ConsumeValue(argc, argv, "--out-dir", &out_dir);
  return out_dir;
}

/// The usage tail every checkpointing bench shares: the flags
/// InitThreadsFromArgs, RobustOptionsFromArgs and OutDirFromArgs
/// consume. A bench that also parses --workers (DistOptionsFromArgs)
/// appends it.
inline constexpr const char* kRuntimeUsage =
    "[--threads N] [--out-dir DIR] [--checkpoint PATH] "
    "[--checkpoint-every N] [--resume [PATH]] [--watchdog-s X]";

/// BENCH_<slug>.json — the deterministic result artifact.
inline bool EmitBench(const std::string& out_dir, const std::string& slug,
                      const std::string& json) {
  return WriteTextFile(out_dir + "/BENCH_" + slug + ".json", json);
}

/// TIMING_<slug>.json — scheduling telemetry, echoed to stderr so a
/// human watching the run sees it without opening the artifact.
inline bool EmitTiming(const std::string& out_dir, const std::string& slug,
                       const std::string& json) {
  std::fprintf(stderr, "[runtime] %s", json.c_str());
  return WriteTextFile(out_dir + "/TIMING_" + slug + ".json", json);
}

/// METRICS_<slug>.json — deterministic merged registry snapshot.
inline bool EmitMetrics(const std::string& out_dir, const std::string& slug,
                        const obs::MetricsRegistry& registry) {
  return WriteTextFile(out_dir + "/METRICS_" + slug + ".json",
                       obs::MetricsToJson(slug, registry));
}

/// TRACE_<slug>.bin + TRACE_<slug>.jsonl — the flight recording, once
/// as the binary codec (tools/trace_dump input, round-trip currency)
/// and once as JSONL (grep/jq currency). Both deterministic.
inline bool EmitTraces(const std::string& out_dir, const std::string& slug,
                       const std::vector<obs::NamedTrace>& traces) {
  const bool bin_ok = WriteBinaryFile(out_dir + "/TRACE_" + slug + ".bin",
                                      obs::SerializeTraces(traces));
  const bool jsonl_ok = WriteTextFile(out_dir + "/TRACE_" + slug + ".jsonl",
                                      obs::TracesToJsonl(traces));
  return bin_ok && jsonl_ok;
}

/// PROFILE_<slug>.json — Chrome trace_event dump of the global
/// profiler (chrome://tracing / Perfetto loadable). Wall clock: the
/// one artifact here that is *expected* to differ run to run.
inline bool EmitProfile(const std::string& out_dir, const std::string& slug) {
  return WriteTextFile(out_dir + "/PROFILE_" + slug + ".json",
                       obs::GlobalProfiler().ChromeTraceJson());
}

}  // namespace freerider::bench
