#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mac/ambient_traffic.h"
#include "mac/coexistence.h"
#include "mac/plm.h"
#include "mac/repacketizer.h"
#include "mac/slotted_aloha.h"
#include "phy80211/transmitter.h"

namespace freerider::mac {
namespace {

// ------------------------------------------------------------------- plm

TEST(Plm, EncodeDurations) {
  const PlmConfig config;
  const BitVector bits = BitsFromString("0110");
  const auto pulses = EncodePlm(bits, 0.0, -40.0, config);
  ASSERT_EQ(pulses.size(), 4u);
  EXPECT_DOUBLE_EQ(pulses[0].duration_s, config.l0_s);
  EXPECT_DOUBLE_EQ(pulses[1].duration_s, config.l1_s);
  EXPECT_DOUBLE_EQ(pulses[2].duration_s, config.l1_s);
  EXPECT_DOUBLE_EQ(pulses[3].duration_s, config.l0_s);
  // Pulses do not overlap and respect the gap.
  for (std::size_t i = 1; i < pulses.size(); ++i) {
    EXPECT_GE(pulses[i].start_s,
              pulses[i - 1].start_s + pulses[i - 1].duration_s + config.gap_s -
                  1e-12);
  }
}

TEST(Plm, ClassifyWithinTolerance) {
  const PlmConfig config;
  EXPECT_EQ(ClassifyPulse({0.0, config.l0_s + 20e-6}, config), Bit{0});
  EXPECT_EQ(ClassifyPulse({0.0, config.l1_s - 20e-6}, config), Bit{1});
  EXPECT_FALSE(ClassifyPulse({0.0, config.l0_s + 60e-6}, config).has_value());
  EXPECT_FALSE(ClassifyPulse({0.0, 2.0e-3}, config).has_value());
}

TEST(Plm, RoundTripThroughEnvelopeDetector) {
  Rng rng(1);
  const tag::EnvelopeDetector detector;
  const PlmConfig config;
  const BitVector message = BuildPlmMessage(BitsFromString("1100101011110000"));
  const auto pulses = EncodePlm(message, 0.0, -40.0, config);
  const auto measured = detector.DetectAll(pulses, rng);
  const BitVector decoded = DecodePlm(measured, config);
  EXPECT_EQ(decoded, message);
}

TEST(Plm, AmbientPulsesIgnored) {
  Rng rng(2);
  const PlmConfig config;
  // Interleave PLM pulses with ambient junk; decode must drop the junk.
  std::vector<tag::MeasuredPulse> pulses;
  const BitVector bits = BitsFromString("101");
  double t = 0.0;
  for (Bit b : bits) {
    pulses.push_back({t, 0.3e-3});  // ambient short packet
    t += 0.4e-3;
    pulses.push_back({t, b ? config.l1_s : config.l0_s});
    t += 1.3e-3;
    pulses.push_back({t, 2.0e-3});  // ambient long packet
    t += 2.2e-3;
  }
  EXPECT_EQ(DecodePlm(pulses, config), bits);
}

TEST(Plm, MessageReceiverFindsPreamble) {
  PlmMessageReceiver receiver(4);
  const BitVector payload = BitsFromString("1011");
  const BitVector message = BuildPlmMessage(payload);
  // Feed noise bits first, then the message.
  std::optional<BitVector> got;
  for (Bit b : BitsFromString("001101")) {
    got = receiver.PushBit(b);
    EXPECT_FALSE(got.has_value());
  }
  for (Bit b : message) {
    const auto r = receiver.PushBit(b);
    if (r.has_value()) got = r;
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(Plm, BitRateNear500bps) {
  // The paper's prototype PLM runs at ~500 b/s.
  EXPECT_NEAR(PlmBitRateBps(), 500.0, 600.0);
  EXPECT_GT(PlmBitRateBps(), 300.0);
  EXPECT_LT(PlmBitRateBps(), 1500.0);
}

// -------------------------------------------------------- ambient traffic

TEST(Ambient, DurationDistributionIsBimodal) {
  Rng rng(3);
  const AmbientTrafficConfig config;
  std::size_t short_count = 0;
  std::size_t long_count = 0;
  std::size_t valley_count = 0;
  const std::size_t n = 100000;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = SampleAmbientDuration(config, rng);
    if (d < 0.5e-3) {
      ++short_count;
    } else if (d >= 1.5e-3) {
      ++long_count;
    } else {
      ++valley_count;
    }
  }
  // Fig. 3: ~78% short, ~18-22% long, valley nearly empty.
  EXPECT_NEAR(static_cast<double>(short_count) / n, 0.78, 0.01);
  EXPECT_NEAR(static_cast<double>(long_count) / n, 0.217, 0.01);
  EXPECT_LT(static_cast<double>(valley_count) / n, 0.01);
}

TEST(Ambient, FalseMatchProbabilityNearPaper) {
  Rng rng(4);
  const AmbientTrafficConfig config;
  const PlmConfig plm;
  const double p = AmbientFalseMatchProbability(config, plm.l0_s, plm.l1_s,
                                                plm.tolerance_s, rng, 400000);
  // Paper: ~0.03 %.
  EXPECT_LT(p, 0.002);
  EXPECT_GT(p, 0.00001);
}

TEST(Ambient, TrafficPulsesSortedAndNonOverlapping) {
  Rng rng(5);
  const AmbientTrafficConfig config;
  const auto pulses = GenerateAmbientTraffic(config, 1.0, rng);
  EXPECT_GT(pulses.size(), 100u);
  for (std::size_t i = 1; i < pulses.size(); ++i) {
    EXPECT_GE(pulses[i].start_s,
              pulses[i - 1].start_s + pulses[i - 1].duration_s - 1e-12);
  }
}

// ---------------------------------------------------------- slotted aloha

TEST(Aloha, SchedulerTracksPopulation) {
  SlotScheduler scheduler;
  // Lots of collisions: slots must grow.
  scheduler.ReportRound(2, 10, 0);
  EXPECT_GT(scheduler.current_slots(), 8u);
  // All empties: slots shrink to the floor.
  scheduler.ReportRound(0, 0, 30);
  EXPECT_EQ(scheduler.current_slots(), 4u);
}

TEST(Aloha, RoundConservesTags) {
  Rng rng(6);
  CampaignConfig config;
  config.plm_delivery_probability = 1.0;
  FramedSlottedAlohaSimulator sim(config);
  const RoundResult round = sim.RunRound(10, rng);
  EXPECT_EQ(round.singles + round.collisions + round.empties, round.slots);
  std::size_t succeeded = 0;
  for (bool s : round.tag_succeeded) succeeded += s;
  EXPECT_EQ(succeeded, round.singles);
}

TEST(Aloha, SingleTagAlwaysSucceedsWithPerfectPlm) {
  Rng rng(7);
  CampaignConfig config;
  config.plm_delivery_probability = 1.0;
  FramedSlottedAlohaSimulator sim(config);
  for (int r = 0; r < 20; ++r) {
    const RoundResult round = sim.RunRound(1, rng);
    EXPECT_TRUE(round.tag_succeeded[0]);
  }
}

TEST(Aloha, AggregateThroughputRisesWithTagCount) {
  Rng rng(8);
  CampaignConfig config;
  double prev = 0.0;
  for (std::size_t tags : {4u, 12u, 20u}) {
    FramedSlottedAlohaSimulator sim(config);
    Rng campaign_rng = rng.Split();
    const CampaignStats stats = sim.RunCampaign(tags, 400, campaign_rng);
    EXPECT_GT(stats.aggregate_throughput_bps, prev);
    prev = stats.aggregate_throughput_bps;
  }
}

TEST(Aloha, FairnessHighAcrossTagCounts) {
  Rng rng(9);
  CampaignConfig config;
  for (std::size_t tags : {4u, 8u, 12u, 16u, 20u}) {
    FramedSlottedAlohaSimulator sim(config);
    Rng campaign_rng = rng.Split();
    const CampaignStats stats = sim.RunCampaign(tags, 400, campaign_rng);
    // Paper Fig. 17b: ~0.85 at 20 tags, similar across counts.
    EXPECT_GT(stats.jain_fairness, 0.75) << tags << " tags";
    EXPECT_LE(stats.jain_fairness, 1.0);
  }
}

TEST(Aloha, MeasuredTracksAnalyticExpectation) {
  Rng rng(10);
  CampaignConfig config;
  config.plm_delivery_probability = 1.0;
  FramedSlottedAlohaSimulator sim(config);
  const CampaignStats stats = sim.RunCampaign(12, 600, rng);
  const double expected = ExpectedAlohaThroughputBps(12, config.timing);
  EXPECT_NEAR(stats.aggregate_throughput_bps, expected, expected * 0.25);
}

TEST(Aloha, TdmBeatsAlohaAndAsymptotes) {
  const MacTimingConfig timing;
  for (std::size_t tags : {4u, 20u, 100u}) {
    EXPECT_GT(TdmThroughputBps(tags, timing),
              ExpectedAlohaThroughputBps(tags, timing));
  }
  // Paper: Aloha asymptote ~18 kb/s, TDM ~40 kb/s.
  const double aloha_inf = ExpectedAlohaThroughputBps(300, timing);
  const double tdm_inf = TdmThroughputBps(300, timing);
  EXPECT_NEAR(aloha_inf, 16000.0, 4000.0);
  EXPECT_NEAR(tdm_inf, 41000.0, 5000.0);
}

// ------------------------------------------------------------ coexistence

TEST(Coexistence, BackscatterDoesNotHurtWifi) {
  Rng rng(11);
  const CoexistenceConfig config;
  const auto baseline = SimulateWifiThroughput(config, nullptr, 2000, rng);
  for (ExciterKind exciter : {ExciterKind::kWifi, ExciterKind::kZigbee,
                              ExciterKind::kBluetooth}) {
    Rng local = rng.Split();
    const auto with_tag = SimulateWifiThroughput(config, &exciter, 2000, local);
    // Fig. 15: medians within ~1 Mb/s of each other.
    EXPECT_NEAR(Median(with_tag), Median(baseline), 1.0);
  }
}

TEST(Coexistence, WifiTrafficDegradesWifiBackscatterTail) {
  Rng rng(12);
  const CoexistenceConfig config;
  const auto absent = SimulateBackscatterThroughput(
      config, ExciterKind::kWifi, false, 3000, rng);
  const auto present = SimulateBackscatterThroughput(
      config, ExciterKind::kWifi, true, 3000, rng);
  // Fig. 16a: medians similar, low tail clearly worse with WiFi present.
  EXPECT_NEAR(Median(present), Median(absent), 6.0);
  EXPECT_LT(Percentile(present, 10), Percentile(absent, 10) - 3.0);
}

TEST(Coexistence, NarrowbandBackscatterBarelyAffected) {
  Rng rng(13);
  const CoexistenceConfig config;
  for (ExciterKind exciter : {ExciterKind::kZigbee, ExciterKind::kBluetooth}) {
    Rng local = rng.Split();
    const auto absent =
        SimulateBackscatterThroughput(config, exciter, false, 3000, local);
    const auto present =
        SimulateBackscatterThroughput(config, exciter, true, 3000, local);
    // Fig. 16bc: within 1-2 kb/s.
    EXPECT_NEAR(Median(present), Median(absent), 2.0);
  }
}

TEST(Coexistence, LeakageOrdering) {
  const CoexistenceConfig config;
  // WiFi backscatter channel (13) is closer to the interferer than the
  // ZigBee/BT 2.48 GHz channels and its receiver is wideband.
  EXPECT_GT(
      WifiLeakageIntoBackscatterChannelDbm(config, ExciterKind::kWifi),
      WifiLeakageIntoBackscatterChannelDbm(config, ExciterKind::kZigbee));
}

// --------------------------------------------------------- repacketizer

TEST(Repacketizer, FrameAirtimesEncodeTheBits) {
  const RepacketizerConfig config;
  const BitVector bits = BitsFromString("0110");
  const auto plan = PlanFrames(1 << 20, bits, config);
  ASSERT_EQ(plan.frames.size(), 4u);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(plan.frames[i].plm_bit, bits[i]);
    // Check the airtime a frame of that size actually has.
    const phy80211::TxFrame frame = phy80211::BuildFrame(
        Bytes(plan.frames[i].payload_bytes, 0xAA), {});
    const double target = bits[i] ? config.plm.l1_s : config.plm.l0_s;
    EXPECT_NEAR(phy80211::FrameDurationS(frame), target, 6e-6) << i;
  }
}

TEST(Repacketizer, CarriesRealTrafficWhenQueueIsDeep) {
  const BitVector bits = BitsFromString("10101010");
  const auto plan = PlanFrames(1 << 20, bits);
  EXPECT_EQ(plan.pad_bytes, 0u);
  EXPECT_GT(plan.user_bytes_carried, 4000u);
  EXPECT_DOUBLE_EQ(ProductiveFraction(plan), 1.0);
}

TEST(Repacketizer, PadsWhenQueueRunsDry) {
  const BitVector bits = BitsFromString("1111");
  const auto plan = PlanFrames(100, bits);
  EXPECT_EQ(plan.user_bytes_carried, 100u);
  EXPECT_GT(plan.pad_bytes, 0u);
  EXPECT_LT(ProductiveFraction(plan), 0.1);
  // All four frames still exist — the control message must go out.
  EXPECT_EQ(plan.frames.size(), 4u);
}

TEST(Repacketizer, BitLengthsDiffer) {
  const RepacketizerConfig config;
  EXPECT_GT(PayloadBytesForBit(1, config),
            PayloadBytesForBit(0, config));
}

TEST(Repacketizer, HigherRateCarriesMoreBytesPerBit) {
  RepacketizerConfig slow;
  RepacketizerConfig fast;
  fast.rate = phy80211::Rate::k54Mbps;
  EXPECT_GT(PayloadBytesForBit(0, fast), PayloadBytesForBit(0, slow));
}

}  // namespace
}  // namespace freerider::mac
