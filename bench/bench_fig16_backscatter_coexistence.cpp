// Fig. 16: does concurrent WiFi traffic hurt backscatter?
//
// Paper: with the tag's channel adjacent to (but not overlapping) busy
// channel-6 WiFi: the WiFi-excited backscatter median stays 61.8 kbps
// but a ~10 % tail drops toward 35 kbps (Fig. 16a); ZigBee- and
// Bluetooth-excited backscatter at 2.48 GHz move by only 1-2 kbps
// (Fig. 16b,c) thanks to narrowband receive filtering.
//
// The six curves (3 exciters × WiFi absent/present) run as one 3×2
// point×trial grid on the runtime executor; seeds are pre-drawn in
// the historical Split() order so the numbers match the serial run
// bit for bit.
#include <cstdio>

#include "common/stats.h"
#include "distance_figure.h"
#include "mac/coexistence.h"
#include "sim/sweep.h"

using namespace freerider;

int main(int argc, char** argv) {
  bool args_ok = true;
  runtime::InitThreadsFromArgs(argc, argv, &args_ok);
  const std::string out_dir = bench::OutDirFromArgs(argc, argv);
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv,
          "bench_fig16_backscatter_coexistence [--threads N] "
          "[--out-dir DIR]")) {
    return rc;
  }

  Rng rng(16);
  const mac::CoexistenceConfig config;
  const std::size_t windows = 5000;

  struct Case {
    const char* title;
    const char* slug;
    mac::ExciterKind exciter;
  };
  const Case cases[] = {
      {"Fig. 16a: backscattering 802.11g/n WiFi (tag on channel 13)",
       "wifi", mac::ExciterKind::kWifi},
      {"Fig. 16b: backscattering ZigBee (tag near 2.48 GHz)", "zigbee",
       mac::ExciterKind::kZigbee},
      {"Fig. 16c: backscattering Bluetooth (tag near 2.48 GHz)", "bluetooth",
       mac::ExciterKind::kBluetooth},
  };

  std::printf(
      "=== Fig. 16: backscatter throughput with WiFi present/absent ===\n\n");

  // Historical draw order: per case, absent then present.
  std::uint64_t seeds[3][2];
  for (auto& pair : seeds) {
    pair[0] = rng.NextU64();
    pair[1] = rng.NextU64();
  }
  std::vector<double> curves[3][2];
  runtime::SweepEngine engine(runtime::DefaultExecutor());
  const runtime::SweepReport report =
      engine.Run({3, 2}, [&](std::size_t p, std::size_t t) {
        Rng local(seeds[p][t]);
        curves[p][t] = mac::SimulateBackscatterThroughput(
            config, cases[p].exciter, /*wifi_traffic_present=*/t == 1,
            windows, local);
        return true;
      });

  sim::TablePrinter table({"exciter", "wifi", "median (kbps)", "p10", "p90",
                           "leakage (dBm)"});
  for (std::size_t p = 0; p < 3; ++p) {
    const auto& absent = curves[p][0];
    const auto& present = curves[p][1];
    std::printf("%s\n", cases[p].title);
    std::printf("  WiFi absent : median %5.1f kbps | p10 %5.1f | p90 %5.1f\n",
                Median(absent), Percentile(absent, 10),
                Percentile(absent, 90));
    std::printf("  WiFi present: median %5.1f kbps | p10 %5.1f | p90 %5.1f\n",
                Median(present), Percentile(present, 10),
                Percentile(present, 90));
    const double leakage =
        mac::WifiLeakageIntoBackscatterChannelDbm(config, cases[p].exciter);
    std::printf(
        "  leakage into backscatter channel: %.1f dBm (signal %.1f dBm)\n\n",
        leakage, config.backscatter_rx_dbm);
    for (std::size_t t = 0; t < 2; ++t) {
      const auto& curve = curves[p][t];
      table.AddRow({cases[p].slug, t == 1 ? "present" : "absent",
                    sim::TablePrinter::Num(Median(curve), 1),
                    sim::TablePrinter::Num(Percentile(curve, 10), 1),
                    sim::TablePrinter::Num(Percentile(curve, 90), 1),
                    sim::TablePrinter::Num(leakage, 1)});
    }
  }

  std::printf(
      "Paper: Fig. 16a median 61.8 kbps with or without WiFi, but the low\n"
      "tail degrades toward 35 kbps when WiFi is present; Fig. 16b,c move\n"
      "by only 1-2 kbps (narrowband receivers filter the out-of-band WiFi\n"
      "leakage).\n");

  bench::EmitBench(out_dir, "fig16_backscatter_coexistence",
                   table.ToJson("fig16_backscatter_coexistence"));
  bench::EmitTiming(out_dir, "fig16_backscatter_coexistence",
                    report.SummaryJson("fig16_backscatter_coexistence"));
  return 0;
}
