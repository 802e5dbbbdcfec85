// Runtime acceptance bench: determinism and thread-scaling record for
// the parallel simulation runtime (src/runtime/).
//
// Runs the same distance-sweep workload (the Fig. 10 WiFi LOS grid)
// on executors with 1, 2 and hardware_concurrency threads, plus an
// executor microbenchmark, and:
//
//   * self-checks that the per-point results are BIT-IDENTICAL across
//     all thread counts (hex-float digest comparison) — exits nonzero
//     on any mismatch;
//   * records wall-clock speedup over the 1-thread serial baseline in
//     BENCH_runtime.json (the ≥3×-on-quad-core acceptance artifact;
//     the file also records hardware_concurrency so a 1-core CI box
//     reading ~1× is interpretable).
//
//   bench_runtime [--out-dir DIR] [--packets N]
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "distance_figure.h"
#include "runtime/executor.h"
#include "runtime/reduce.h"
#include "runtime/sweep_engine.h"
#include "sim/link.h"
#include "sim/sweep.h"

using namespace freerider;

namespace {

struct SweepOutcome {
  std::string digest;
  double wall_s = 0.0;
  std::uint64_t steals = 0;
};

/// The Fig. 10 workload run on a caller-owned executor (DistanceSweepRobust
/// itself is pinned to the process-wide default executor, whose thread
/// count is fixed — the scaling comparison needs one executor per
/// count in a single process).
SweepOutcome RunWorkload(runtime::Executor& executor, std::size_t packets) {
  const std::vector<double> distances = {1,  2,  5,  8,  12, 15, 18, 22,
                                         26, 30, 34, 38, 42, 46};
  Rng master(101);
  std::vector<std::uint64_t> point_seeds(distances.size());
  for (auto& s : point_seeds) s = master.NextU64();

  std::vector<sim::LinkStats> stats(distances.size());
  runtime::SweepEngine engine(executor);
  const runtime::SweepReport report =
      engine.Run({distances.size(), 1}, [&](std::size_t p, std::size_t) {
        sim::LinkConfig config;
        config.radio = core::RadioType::kWifi;
        config.deployment = channel::LosDeployment(1.0);
        config.tag_to_rx_m = distances[p];
        config.num_packets = packets;
        config.profile = sim::DefaultProfile(core::RadioType::kWifi);
        Rng point_rng(point_seeds[p]);
        stats[p] = sim::SimulateTagLinkAdaptive(config, point_rng);
        return true;
      });

  SweepOutcome outcome;
  outcome.wall_s = report.run.wall_s;
  outcome.steals = report.run.steals;
  char buf[128];
  for (const sim::LinkStats& s : stats) {
    std::snprintf(buf, sizeof(buf), "%a|%a|%a|%zu;", s.tag_throughput_bps,
                  s.tag_ber, s.packet_reception_rate, s.packets_decoded);
    outcome.digest += buf;
  }
  return outcome;
}

/// Executor overhead: empty-ish tasks, heavily skewed durations to
/// exercise steal-half.
double MicrobenchTasksPerSecond(runtime::Executor& executor,
                                std::uint64_t* steals) {
  const std::size_t n = 20000;
  std::vector<std::uint64_t> sink(n);
  const runtime::RunTelemetry t = executor.ParallelFor(n, [&](std::size_t i) {
    // A few hundred ns of mixing; index-dependent so durations skew.
    std::uint64_t x = i;
    const std::size_t iters = 1 + (i % 64) * 8;
    for (std::size_t k = 0; k < iters; ++k) x = Rng::Mix(x);
    sink[i] = x;
  });
  *steals = t.steals;
  return t.wall_s > 0.0 ? static_cast<double>(n) / t.wall_s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = bench::OutDirFromArgs(argc, argv);
  std::size_t packets = 12;
  bool args_ok = true;
  cli::ConsumeSize(argc, argv, "--packets", &packets, &args_ok);
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv, "bench_runtime [--out-dir DIR] [--packets N]")) {
    return rc;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Runtime: determinism + thread scaling ===\n");
  std::printf("hardware_concurrency=%u, Fig. 10 workload, %zu packets/point\n\n",
              hw, packets);

  std::vector<std::size_t> counts = {1, 2};
  if (hw > 2) counts.push_back(hw);

  sim::TablePrinter table({"threads", "wall (s)", "speedup", "steals",
                           "digest == serial"});
  std::vector<SweepOutcome> outcomes;
  bool deterministic = true;
  for (std::size_t c : counts) {
    runtime::Executor executor(c);
    outcomes.push_back(RunWorkload(executor, packets));
    const SweepOutcome& o = outcomes.back();
    const bool match = o.digest == outcomes.front().digest;
    deterministic = deterministic && match;
    table.AddRow({std::to_string(c), sim::TablePrinter::Num(o.wall_s, 2),
                  sim::TablePrinter::Num(
                      o.wall_s > 0.0 ? outcomes.front().wall_s / o.wall_s : 0.0,
                      2),
                  std::to_string(o.steals), match ? "yes" : "NO (BUG)"});
  }
  std::printf("%s\n", table.ToString().c_str());

  sim::TablePrinter micro({"threads", "tasks/s", "steals"});
  for (std::size_t c : counts) {
    runtime::Executor executor(c);
    std::uint64_t steals = 0;
    const double rate = MicrobenchTasksPerSecond(executor, &steals);
    micro.AddRow({std::to_string(c), sim::TablePrinter::Num(rate / 1e6, 2),
                  std::to_string(steals)});
  }
  std::printf("executor microbench (20000 skewed tasks, tasks/s in M):\n%s\n",
              micro.ToString().c_str());

  const double speedup_max =
      outcomes.back().wall_s > 0.0
          ? outcomes.front().wall_s / outcomes.back().wall_s
          : 0.0;
  std::printf("max-thread speedup over serial: %.2fx (threads=%zu, hw=%u)\n",
              speedup_max, counts.back(), hw);
  std::printf("determinism across thread counts: %s\n",
              deterministic ? "bit-identical" : "MISMATCH (BUG)");

  std::string json = table.ToJson("runtime_scaling") +
                     micro.ToJson("runtime_microbench");
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"table\": \"runtime_summary\", \"hardware_concurrency\": "
                "%u, \"max_speedup\": %.3f, \"deterministic\": %s}\n",
                hw, speedup_max, deterministic ? "true" : "false");
  json += line;
  bench::EmitBench(out_dir, "runtime", json);
  bench::EmitProfile(out_dir, "runtime");
  return deterministic ? 0 : 1;
}
