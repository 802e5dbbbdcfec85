// Shared runner for the throughput/BER/RSSI-vs-distance figures
// (Figs. 10-13): sweeps the tag→receiver distance with rate adaptation
// and prints the three series the paper plots.
//
// The sweep's points execute in parallel on the runtime executor
// (--threads N / FREERIDER_THREADS; default: hardware concurrency).
// stdout and BENCH_<slug>.json are byte-identical at every thread
// count — scheduling telemetry goes to stderr and TIMING_<slug>.json
// only, so CI can diff the result artifacts across --threads runs.
//
// Preemption safety (PR 4): --checkpoint PATH snapshots completed
// points; --resume [PATH] restores them and recomputes only the rest,
// with byte-identical stdout/BENCH output (restore notices go to
// stderr). --watchdog-s X flags hung points.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/cli.h"
#include "runtime/executor.h"
#include "runtime/recovery.h"
#include "sim/sweep.h"

namespace freerider::bench {

inline int RunDistanceFigure(int argc, char** argv, const std::string& title,
                             const std::string& slug, core::RadioType radio,
                             const channel::Deployment& deployment,
                             const std::vector<double>& distances,
                             std::size_t packets, std::uint64_t seed,
                             const std::string& paper_summary) {
  bool args_ok = true;
  runtime::InitThreadsFromArgs(argc, argv, &args_ok);
  const runtime::RobustSweepOptions robust =
      runtime::RobustOptionsFromArgs(argc, argv, &args_ok);
  const std::string out_dir = OutDirFromArgs(argc, argv);
  if (!args_ok) return cli::kUsageError;
  const std::string usage = "bench_" + slug + " " + kRuntimeUsage;
  if (const int rc = cli::RejectUnknownArgs(argc, argv, usage.c_str())) {
    return rc;
  }

  std::printf("=== %s ===\n", title.c_str());
  std::printf("TX-to-tag %.1f m, %zu excitation frames per point, "
              "rate adaptation on\n\n",
              deployment.tx_to_tag_m, packets);

  runtime::RobustSweepReport report;
  const auto points = sim::DistanceSweepRobust(
      radio, deployment, distances, packets, seed, slug, robust, &report);

  sim::TablePrinter table({"distance (m)", "throughput (kbps)", "BER", "RSSI (dBm)",
                           "PRR", "N (redundancy)"});
  for (const auto& p : points) {
    const bool dead = p.stats.packets_decoded == 0;
    table.AddRow(
        {sim::TablePrinter::Num(p.tag_to_rx_m, 0),
         sim::TablePrinter::Num(p.stats.tag_throughput_bps / 1e3, 1),
         dead ? "-" : sim::TablePrinter::Sci(p.stats.tag_ber),
         dead ? "-" : sim::TablePrinter::Num(p.stats.rssi_dbm, 1),
         sim::TablePrinter::Num(p.stats.packet_reception_rate, 2),
         std::to_string(p.stats.redundancy_used)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("%s\n", paper_summary.c_str());

  EmitBench(out_dir, slug, table.ToJson(slug));
  EmitTiming(out_dir, slug,
             report.SummaryJson(slug) +
                 report.TelemetryTable().ToJson(slug + "_tasks"));
  return report.cancelled ? 1 : 0;
}

}  // namespace freerider::bench
