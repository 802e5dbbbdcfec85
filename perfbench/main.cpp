// perfbench_sim: one run of one benchmark workload.
//
//   perfbench_sim --workload wifi_link|zigbee_link|mac_campaign
//                 --seed N --seconds S [--trace 0|1] [--trace-out FILE]
//                 [--setup-only]
//
// Prints a human-readable table, then, as its last stdout line, one
// JSON object: first_step_ns (CLOCK_MONOTONIC instant the first timed
// step began), correct, attempted, failed, digest, problems and
// metrics. run.py wraps it into the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

constexpr const char* kUsage =
    "usage: perfbench_sim --workload wifi_link|zigbee_link|mac_campaign "
    "--seed N --seconds S [--trace 0|1] [--trace-out FILE] [--setup-only]\n";

bool ParseArgs(int argc, char** argv, RunOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Print(const RunOptions& o, RunResult& r) {
  std::printf("workload %s  seed %llu  trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.Problem("non-finite metric " + m.name);
    std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!r.digest_hash.empty()) {
    std::printf("  outputs digest %s  %s\n", r.digest_hash.c_str(),
                r.digest_text.c_str());
  }
  for (const std::string& p : r.problems) std::printf("  PROBLEM: %s\n", p.c_str());

  std::string json = "{\"first_step_ns\": " + std::to_string(r.first_step_ns);
  json += ", \"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"digest\": " + JsonString(r.digest_hash);
  json += ", \"digest_text\": " + JsonString(r.digest_text);
  json += ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.problems[i]);
  }
  json += "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, options)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    RunResult result;
    if (options.workload == "wifi_link" || options.workload == "zigbee_link") {
      result = perfbench::RunLinkWorkload(options,
                                          options.workload == "zigbee_link");
    } else if (options.workload == "mac_campaign") {
      result = perfbench::RunMacCampaign(options);
    } else {
      std::fprintf(stderr, "unknown workload %s\n%s", options.workload.c_str(),
                   kUsage);
      return 2;
    }
    Print(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
