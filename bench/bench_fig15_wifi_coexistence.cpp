// Fig. 15: does backscatter hurt the productive WiFi link?
//
// Paper: a laptop file transfer on channel 6 runs at a 37.4 Mbps
// median; with a tag 1 m from the WiFi receiver backscattering WiFi,
// ZigBee or Bluetooth excitations, the medians are 37.0 / 37.9 /
// 36.8 Mbps — i.e., indistinguishable.
//
// The baseline consumes the master stream first (preserving the
// historical draw order); the three tagged curves then run as
// parallel tasks from pre-drawn split seeds.
#include <cstdio>

#include "common/stats.h"
#include "distance_figure.h"
#include "mac/coexistence.h"
#include "sim/sweep.h"

using namespace freerider;

namespace {

void PrintCdf(const char* label, const std::vector<double>& samples) {
  std::printf("  %-28s median %5.1f Mbps | p10 %5.1f | p90 %5.1f\n", label,
              Median(samples), Percentile(samples, 10),
              Percentile(samples, 90));
}

}  // namespace

int main(int argc, char** argv) {
  bool args_ok = true;
  runtime::InitThreadsFromArgs(argc, argv, &args_ok);
  const std::string out_dir = bench::OutDirFromArgs(argc, argv);
  if (!args_ok) return cli::kUsageError;
  if (const int rc = cli::RejectUnknownArgs(
          argc, argv,
          "bench_fig15_wifi_coexistence [--threads N] [--out-dir DIR]")) {
    return rc;
  }

  Rng rng(15);
  const mac::CoexistenceConfig config;
  const std::size_t windows = 5000;

  std::printf("=== Fig. 15: WiFi throughput with backscatter present/absent ===\n");
  std::printf("%zu measurement windows per curve\n\n", windows);

  const auto baseline =
      mac::SimulateWifiThroughput(config, nullptr, windows, rng);

  struct Case {
    const char* label;
    mac::ExciterKind exciter;
  };
  const Case cases[] = {
      {"backscattering WiFi", mac::ExciterKind::kWifi},
      {"backscattering ZigBee", mac::ExciterKind::kZigbee},
      {"backscattering Bluetooth", mac::ExciterKind::kBluetooth},
  };

  // Pre-draw the per-case seeds in case order (the values the serial
  // loop's rng.Split() produced), then simulate the cases in parallel.
  std::uint64_t case_seeds[3];
  for (auto& s : case_seeds) s = rng.NextU64();
  std::vector<std::vector<double>> tagged(3);
  runtime::SweepEngine engine(runtime::DefaultExecutor());
  const runtime::SweepReport report =
      engine.Run({3, 1}, [&](std::size_t p, std::size_t) {
        Rng local(case_seeds[p]);
        tagged[p] = mac::SimulateWifiThroughput(config, &cases[p].exciter,
                                                windows, local);
        return true;
      });

  PrintCdf("no backscatter", baseline);
  for (std::size_t p = 0; p < 3; ++p) PrintCdf(cases[p].label, tagged[p]);

  // CDF table across the Fig. 15 x-range (26-42 Mbps).
  std::printf("\nCDF (fraction of windows <= x):\n");
  sim::TablePrinter table({"throughput (Mbps)", "no backscatter", "WiFi tag",
                           "ZigBee tag", "Bluetooth tag"});
  auto frac_below = [](const std::vector<double>& v, double x) {
    std::size_t c = 0;
    for (double s : v) c += (s <= x);
    return static_cast<double>(c) / static_cast<double>(v.size());
  };
  for (double x = 30.0; x <= 42.0; x += 2.0) {
    table.AddRow({sim::TablePrinter::Num(x, 0),
                  sim::TablePrinter::Num(frac_below(baseline, x), 3),
                  sim::TablePrinter::Num(frac_below(tagged[0], x), 3),
                  sim::TablePrinter::Num(frac_below(tagged[1], x), 3),
                  sim::TablePrinter::Num(frac_below(tagged[2], x), 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper medians: 37.4 (none) vs 37.0 / 37.9 / 36.8 Mbps — a tag does\n"
      "not interfere with productive WiFi (its sidebands land on other\n"
      "channels and its power is tens of dB below the WiFi noise floor).\n");

  bench::EmitBench(out_dir, "fig15_wifi_coexistence",
                   table.ToJson("fig15_wifi_coexistence"));
  bench::EmitTiming(out_dir, "fig15_wifi_coexistence",
                    report.SummaryJson("fig15_wifi_coexistence"));
  return 0;
}
