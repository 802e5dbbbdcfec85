#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/link.h"
#include "sim/slot_chain.h"
#include "sim/sweep.h"

namespace freerider::sim {
namespace {

LinkConfig MakeConfig(core::RadioType radio, double distance,
                      std::size_t packets = 10) {
  LinkConfig config;
  config.radio = radio;
  config.deployment = channel::LosDeployment();
  config.tag_to_rx_m = distance;
  config.num_packets = packets;
  config.profile = DefaultProfile(radio);
  return config;
}

TEST(PhaseDrift, RotorTracksTheExactPhaseSum) {
  // Against cos/sin of the running sum of the same draws, per sample:
  // at the ZigBee profile's sigma (series steps between resyncs), and at
  // sigmas whose steps leave the series' range.
  for (const double sigma : {0.0045, 0.05, 0.5}) {
    Rng data(3);
    IqBuffer wave(5000);
    for (auto& x : wave) x = data.NextComplexGaussian();
    IqBuffer ref = wave;
    Rng a(17);
    Rng b(17);
    sim::ApplyPhaseDrift(wave, sigma, a);
    double phase = 0.0;
    double worst = 0.0;
    for (std::size_t n = 0; n < ref.size(); ++n) {
      phase += sigma * b.NextGaussian();
      ref[n] *= Cplx{std::cos(phase), std::sin(phase)};
      worst = std::max(worst, std::abs(wave[n] - ref[n]) / std::abs(ref[n]));
    }
    EXPECT_LT(worst, 1e-12) << "sigma " << sigma;
    EXPECT_EQ(a.NextU64(), b.NextU64()) << "one draw per sample";
  }
  IqBuffer wave(64, Cplx{1.0, -1.0});
  Rng a(5);
  Rng b(5);
  sim::ApplyPhaseDrift(wave, 0.0, a);
  EXPECT_EQ(wave, IqBuffer(64, Cplx(1.0, -1.0)));
  EXPECT_EQ(a.NextU64(), b.NextU64()) << "no draws at sigma 0";
}

TEST(Link, BudgetMonotoneInDistance) {
  double prev = 0.0;
  for (double d : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    const double p = BackscatterRxPowerDbm(MakeConfig(core::RadioType::kWifi, d));
    if (prev != 0.0) {
      EXPECT_LT(p, prev);
    }
    prev = p;
  }
}

TEST(Link, SnrConsistentWithBudget) {
  const LinkConfig config = MakeConfig(core::RadioType::kWifi, 10.0);
  EXPECT_NEAR(BackscatterSnrDb(config),
              BackscatterRxPowerDbm(config) - (-174.0 + 73.0 + 5.0), 0.2);
}

class ShortRangeLink : public ::testing::TestWithParam<core::RadioType> {};

TEST_P(ShortRangeLink, FullThroughputCloseIn) {
  Rng rng(1);
  const LinkConfig config = MakeConfig(GetParam(), 2.0, 8);
  const LinkStats stats = SimulateTagLink(config, rng);
  EXPECT_EQ(stats.packets_decoded, stats.packets_attempted);
  EXPECT_LT(stats.tag_ber, 1e-3);
  EXPECT_GT(stats.tag_throughput_bps, 1e3);
}

INSTANTIATE_TEST_SUITE_P(Radios, ShortRangeLink,
                         ::testing::Values(core::RadioType::kWifi,
                                           core::RadioType::kZigbee,
                                           core::RadioType::kBluetooth));

TEST(Link, DeadAtExtremeRange) {
  Rng rng(2);
  const LinkConfig config = MakeConfig(core::RadioType::kBluetooth, 60.0, 6);
  const LinkStats stats = SimulateTagLink(config, rng);
  EXPECT_EQ(stats.packets_decoded, 0u);
  EXPECT_DOUBLE_EQ(stats.tag_throughput_bps, 0.0);
}

TEST(Link, HeadlineRatesAtCloseRange) {
  Rng rng(3);
  // Paper headlines: ~60 kb/s WiFi, ~15 kb/s ZigBee, ~50 kb/s Bluetooth.
  const LinkStats wifi =
      SimulateTagLink(MakeConfig(core::RadioType::kWifi, 2.0, 6), rng);
  EXPECT_NEAR(wifi.tag_throughput_bps / 1e3, 58.0, 6.0);
  const LinkStats zigbee =
      SimulateTagLink(MakeConfig(core::RadioType::kZigbee, 2.0, 6), rng);
  EXPECT_NEAR(zigbee.tag_throughput_bps / 1e3, 14.3, 2.0);
  const LinkStats bt =
      SimulateTagLink(MakeConfig(core::RadioType::kBluetooth, 2.0, 6), rng);
  EXPECT_NEAR(bt.tag_throughput_bps / 1e3, 52.0, 6.0);
}

TEST(Link, NlosWeakerThanLos) {
  LinkConfig los = MakeConfig(core::RadioType::kWifi, 15.0);
  LinkConfig nlos = los;
  nlos.deployment = channel::NlosDeployment();
  EXPECT_LT(BackscatterRxPowerDbm(nlos), BackscatterRxPowerDbm(los));
}

TEST(Link, AdaptiveRaisesRedundancyAtRange) {
  Rng rng(4);
  const LinkConfig near = MakeConfig(core::RadioType::kWifi, 3.0, 6);
  const LinkStats near_stats = SimulateTagLinkAdaptive(near, rng, 4);
  EXPECT_EQ(near_stats.redundancy_used, 4u);
}

TEST(Sweep, ThroughputDecaysWithDistance) {
  const std::vector<double> distances = {2.0, 20.0, 44.0};
  const auto points =
      DistanceSweepRobust(core::RadioType::kWifi, channel::LosDeployment(),
                          distances, 8, 42, "sweep_test", {});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].stats.tag_throughput_bps,
            points[2].stats.tag_throughput_bps);
  EXPECT_GT(points[0].stats.tag_throughput_bps, 40e3);
}

TEST(Sweep, RangeSweepOrdersRadiosLikePaper) {
  // Fig. 14: WiFi reaches farthest, then ZigBee, then Bluetooth.
  const std::vector<double> d1 = {1.0};
  const auto wifi =
      RangeSweep(core::RadioType::kWifi, d1, 60.0, 6, 7);
  const auto zigbee =
      RangeSweep(core::RadioType::kZigbee, d1, 60.0, 6, 7);
  const auto bt =
      RangeSweep(core::RadioType::kBluetooth, d1, 60.0, 6, 7);
  EXPECT_GT(wifi[0].max_tag_to_rx_m, zigbee[0].max_tag_to_rx_m);
  EXPECT_GT(zigbee[0].max_tag_to_rx_m, bt[0].max_tag_to_rx_m);
  // Paper maxima: ~42 m, ~22 m, ~12 m.
  EXPECT_NEAR(wifi[0].max_tag_to_rx_m, 42.0, 14.0);
  EXPECT_NEAR(zigbee[0].max_tag_to_rx_m, 22.0, 9.0);
  EXPECT_NEAR(bt[0].max_tag_to_rx_m, 12.0, 6.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(TablePrinter::Num(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::Sci(0.00123), "1.2e-03");
}

TEST(TablePrinterTest, ToJsonEscapesAdversarialCells) {
  // Cells carry free-form detail strings (violation messages, health
  // state names); control characters, quotes and backslashes must all
  // come out as legal JSON, never raw.
  TablePrinter table({"quote\"h", "back\\slash"});
  table.AddRow({"line\nbreak", "tab\there"});
  table.AddRow({std::string("nul\0byte", 8), "bell\x07rings\x1f"});
  const std::string json = table.ToJson("esc\"name");
  EXPECT_NE(json.find("\"esc\\\"name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"quote\\\"h\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"back\\\\slash\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\\nbreak\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tab\\there\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"nul\\u0000byte\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bell\\u0007rings\\u001f\""), std::string::npos)
      << json;
  // No raw control byte survives inside a string (the only control
  // character in the document is ToJson's own structural '\n').
  for (char ch : json) {
    if (ch == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
  }
}

}  // namespace
}  // namespace freerider::sim
