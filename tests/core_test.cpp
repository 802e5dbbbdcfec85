#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/redundancy.h"
#include "core/tag_frame.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "phy80211/constellation.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"
#include "tag/rf_frontend.h"

namespace freerider::core {
namespace {

// -------------------------------------------------------------- table 1

TEST(Table1, XorLogic) {
  // decoded C2, excitation C1 -> 1 ; C1,C2 -> 1 ; C1,C1 -> 0 ; C2,C2 -> 0
  EXPECT_EQ(XorDecodeTable1(1, 0), 1);
  EXPECT_EQ(XorDecodeTable1(0, 1), 1);
  EXPECT_EQ(XorDecodeTable1(0, 0), 0);
  EXPECT_EQ(XorDecodeTable1(1, 1), 0);
}

// ------------------------------------------------------------ translator

TEST(Translator, CapacityMatchesWindows) {
  TranslateConfig cfg;
  cfg.radio = RadioType::kWifi;
  cfg.redundancy = 4;
  // 480 start + 10 windows of 4*80.
  EXPECT_EQ(TagBitCapacity(480 + 10 * 320, cfg), 10u);
  EXPECT_EQ(TagBitCapacity(480 + 10 * 320 + 319, cfg), 10u);
  EXPECT_EQ(TagBitCapacity(100, cfg), 0u);
}

TEST(Translator, QuaternaryDoublesCapacity) {
  TranslateConfig binary;
  binary.redundancy = 4;
  TranslateConfig quad = binary;
  quad.quaternary = true;
  EXPECT_EQ(TagBitCapacity(4000, quad), 2 * TagBitCapacity(4000, binary));
}

TEST(Translator, RatesMatchPaperHeadlines) {
  // WiFi N=4: 1 bit / 16 us = 62.5 kb/s (the paper's ~60 kb/s).
  TranslateConfig wifi;
  wifi.radio = RadioType::kWifi;
  wifi.redundancy = 4;
  EXPECT_NEAR(TagBitRateBps(wifi), 62500.0, 1.0);
  // ZigBee N=4: 1 bit / 64 us = 15.6 kb/s (the paper's ~15 kb/s).
  TranslateConfig zb;
  zb.radio = RadioType::kZigbee;
  zb.redundancy = 4;
  EXPECT_NEAR(TagBitRateBps(zb), 15625.0, 1.0);
  // Bluetooth N=18: ~55.6 kb/s (the paper's ~55 kb/s).
  TranslateConfig bt;
  bt.radio = RadioType::kBluetooth;
  bt.redundancy = 18;
  EXPECT_NEAR(TagBitRateBps(bt), 55555.6, 1.0);
}

TEST(Translator, RejectsBadConfigs) {
  IqBuffer wave(1000, Cplx{1.0, 0.0});
  BitVector bits = {1, 0};
  TranslateConfig cfg;
  cfg.redundancy = 0;
  EXPECT_THROW(Translate(wave, bits, cfg), std::invalid_argument);
  TranslateConfig quad_zb;
  quad_zb.radio = RadioType::kZigbee;
  quad_zb.quaternary = true;
  EXPECT_THROW(Translate(wave, bits, quad_zb), std::invalid_argument);
}

TEST(Translator, PreambleRegionUntouchedUpToScale) {
  Rng rng(1);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 50), {});
  TranslateConfig cfg;
  const BitVector tag_bits = RandomBits(rng, 20);
  const IqBuffer out = Translate(frame.waveform, tag_bits, cfg);
  for (std::size_t n = 0; n < ModulationStartSamples(RadioType::kWifi); ++n) {
    EXPECT_NEAR(std::abs(out[n] - frame.waveform[n] * tag::kSidebandAmplitude),
                0.0, 1e-12);
  }
}

// --------------------------------------------- end-to-end WiFi translation

struct WifiLinkOutput {
  phy80211::RxResult reference;
  phy80211::RxResult backscatter;
  BitVector sent_tag_bits;
};

WifiLinkOutput RunWifiTagLink(double backscatter_rx_dbm, std::size_t redundancy,
                              Rng& rng, std::size_t payload_bytes = 200) {
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, payload_bytes), {});
  TranslateConfig cfg;
  cfg.radio = RadioType::kWifi;
  cfg.redundancy = redundancy;
  WifiLinkOutput out;
  out.sent_tag_bits =
      RandomBits(rng, TagBitCapacity(frame.waveform.size(), cfg));
  const IqBuffer backscattered =
      Translate(frame.waveform, out.sent_tag_bits, cfg);

  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 4.0;
  auto pad = [](const IqBuffer& w) {
    IqBuffer p(120, Cplx{0.0, 0.0});
    p.insert(p.end(), w.begin(), w.end());
    p.insert(p.end(), 120, Cplx{0.0, 0.0});
    return p;
  };
  // Reference receiver: strong direct link.
  out.reference =
      phy80211::ReceiveFrame(channel::ApplyLink(pad(frame.waveform), -50.0, fe, rng));
  // Backscatter receiver at the requested power.
  out.backscatter = phy80211::ReceiveFrame(
      channel::ApplyLink(pad(backscattered), backscatter_rx_dbm, fe, rng));
  return out;
}

TEST(EndToEndWifi, TagBitsRecoveredAtHighSnr) {
  Rng rng(2);
  const WifiLinkOutput out = RunWifiTagLink(-60.0, 4, rng);
  ASSERT_TRUE(out.reference.fcs_ok);
  ASSERT_TRUE(out.backscatter.signal_ok);
  // The backscattered frame decodes as a frame but with a bad FCS —
  // the tag modified the payload codewords.
  EXPECT_FALSE(out.backscatter.fcs_ok);
  const TagDecodeResult decoded = DecodeWifi(
      out.reference.data_bits, out.backscatter.data_bits,
      phy80211::ParamsFor(out.reference.rate).data_bits_per_symbol, 4);
  ASSERT_EQ(decoded.bits.size(), out.sent_tag_bits.size());
  EXPECT_EQ(decoded.bits, out.sent_tag_bits);
}

TEST(EndToEndWifi, AllZeroTagBitsPreserveFrame) {
  Rng rng(3);
  const phy80211::TxFrame frame = phy80211::BuildFrame(RandomBytes(rng, 80), {});
  TranslateConfig cfg;
  const BitVector zeros(TagBitCapacity(frame.waveform.size(), cfg), 0);
  const IqBuffer backscattered = Translate(frame.waveform, zeros, cfg);
  IqBuffer padded(100, Cplx{0.0, 0.0});
  padded.insert(padded.end(), backscattered.begin(), backscattered.end());
  const phy80211::RxResult rx = phy80211::ReceiveFrame(padded);
  // A tag sending all zeros leaves every codeword untranslated: the
  // backscattered frame is a *valid* WiFi frame (FCS passes).
  ASSERT_TRUE(rx.signal_ok);
  EXPECT_TRUE(rx.fcs_ok);
}

class WifiRedundancySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WifiRedundancySweep, RecoversAtModerateSnr) {
  Rng rng(100 + GetParam());
  const WifiLinkOutput out = RunWifiTagLink(-80.0, GetParam(), rng);
  ASSERT_TRUE(out.reference.fcs_ok);
  ASSERT_TRUE(out.backscatter.signal_ok);
  const TagDecodeResult decoded = DecodeWifi(
      out.reference.data_bits, out.backscatter.data_bits,
      phy80211::ParamsFor(out.reference.rate).data_bits_per_symbol, GetParam());
  EXPECT_LT(TagBitErrorRate(out.sent_tag_bits, decoded), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Ns, WifiRedundancySweep, ::testing::Values(4, 8, 16));

TEST(EndToEndWifi, QuaternaryModeOnQpskExcitation) {
  // Eq. 5: 90° steps are valid codeword translations when the
  // excitation constellation is QPSK or denser.
  Rng rng(4);
  phy80211::TxConfig txcfg;
  txcfg.rate = phy80211::Rate::k12Mbps;  // QPSK
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 150), txcfg);
  TranslateConfig cfg;
  cfg.quaternary = true;
  cfg.redundancy = 4;
  const BitVector tag_bits =
      RandomBits(rng, TagBitCapacity(frame.waveform.size(), cfg));
  const IqBuffer backscattered = Translate(frame.waveform, tag_bits, cfg);
  IqBuffer padded(100, Cplx{0.0, 0.0});
  padded.insert(padded.end(), backscattered.begin(), backscattered.end());
  phy80211::RxConfig rxcfg;
  rxcfg.collect_constellation = true;
  const phy80211::RxResult rx = phy80211::ReceiveFrame(padded, rxcfg);
  ASSERT_TRUE(rx.signal_ok);
  // Every equalized point must still be a valid QPSK codeword.
  std::size_t valid = 0;
  for (const Cplx& p : rx.constellation) {
    valid += phy80211::IsValidConstellationPoint(p, phy80211::Modulation::kQpsk,
                                                 0.2);
  }
  EXPECT_GT(static_cast<double>(valid) /
                static_cast<double>(rx.constellation.size()),
            0.99);
}

// ------------------------------------------- end-to-end ZigBee translation

TEST(EndToEndZigbee, TagBitsRecovered) {
  Rng rng(5);
  const phy802154::TxFrame frame =
      phy802154::BuildFrame(RandomBytes(rng, 60));
  TranslateConfig cfg;
  cfg.radio = RadioType::kZigbee;
  cfg.redundancy = 4;
  const BitVector tag_bits =
      RandomBits(rng, TagBitCapacity(frame.waveform.size(), cfg));
  const IqBuffer backscattered = Translate(frame.waveform, tag_bits, cfg);

  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy802154::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(150, Cplx{0.0, 0.0});
  padded.insert(padded.end(), backscattered.begin(), backscattered.end());
  const phy802154::RxResult rx =
      phy802154::ReceiveFrame(channel::ApplyLink(padded, -80.0, fe, rng));
  ASSERT_TRUE(rx.detected);
  const TagDecodeResult decoded =
      DecodeZigbee(frame.data_symbols, rx.data_symbols, 4);
  ASSERT_EQ(decoded.bits.size(), tag_bits.size());
  EXPECT_EQ(decoded.bits, tag_bits);
}

TEST(EndToEndZigbee, ZeroTagBitsKeepFcsValid) {
  Rng rng(6);
  const phy802154::TxFrame frame = phy802154::BuildFrame(RandomBytes(rng, 40));
  TranslateConfig cfg;
  cfg.radio = RadioType::kZigbee;
  const BitVector zeros(TagBitCapacity(frame.waveform.size(), cfg), 0);
  const IqBuffer backscattered = Translate(frame.waveform, zeros, cfg);
  IqBuffer padded(64, Cplx{0.0, 0.0});
  padded.insert(padded.end(), backscattered.begin(), backscattered.end());
  const phy802154::RxResult rx = phy802154::ReceiveFrame(padded);
  ASSERT_TRUE(rx.detected);
  EXPECT_TRUE(rx.fcs_ok);
}

// ---------------------------------------- end-to-end Bluetooth translation

TEST(EndToEndBluetooth, TagBitsRecovered) {
  Rng rng(7);
  const phyble::TxFrame frame = phyble::BuildFrame(RandomBytes(rng, 36));
  TranslateConfig cfg;
  cfg.radio = RadioType::kBluetooth;
  cfg.redundancy = 18;
  const BitVector tag_bits =
      RandomBits(rng, TagBitCapacity(frame.waveform.size(), cfg));
  const IqBuffer backscattered = Translate(frame.waveform, tag_bits, cfg);

  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phyble::kSampleRateHz;
  fe.noise_figure_db = 6.0;
  IqBuffer padded(100, Cplx{0.0, 0.0});
  padded.insert(padded.end(), backscattered.begin(), backscattered.end());
  padded.insert(padded.end(), 100, Cplx{0.0, 0.0});
  const phyble::RxResult rx =
      phyble::ReceiveFrame(channel::ApplyLink(padded, -75.0, fe, rng));
  ASSERT_TRUE(rx.detected);
  const TagDecodeResult decoded =
      DecodeBluetooth(frame.stream_bits, rx.stream_bits, 18);
  ASSERT_EQ(decoded.bits.size(), tag_bits.size());
  EXPECT_EQ(decoded.bits, tag_bits);
}

// --------------------------------------------------------------- tag frame

TEST(TagFrame, EncodeFindRoundTrip) {
  Rng rng(8);
  const Bytes payload = RandomBytes(rng, 12);
  const BitVector bits = EncodeTagFrame(payload);
  EXPECT_EQ(bits.size(), TagFrameBits(payload.size()));
  const auto frame = FindTagFrame(bits);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->crc_ok);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(frame->start_bit, 0u);
}

TEST(TagFrame, FoundInsideNoise) {
  Rng rng(9);
  BitVector stream = RandomBits(rng, 200);
  const Bytes payload = RandomBytes(rng, 8);
  const BitVector frame_bits = EncodeTagFrame(payload);
  stream.insert(stream.end(), frame_bits.begin(), frame_bits.end());
  stream.insert(stream.end(), 50, 0);
  // Scan from past the random prefix (which could contain accidental
  // preamble patterns) to check placement.
  const auto frame = FindTagFrame(stream, 200);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->crc_ok);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(frame->start_bit, 200u);
}

TEST(TagFrame, CorruptedPayloadFailsCrc) {
  Rng rng(10);
  const Bytes payload = RandomBytes(rng, 10);
  BitVector bits = EncodeTagFrame(payload);
  bits[16 + 8 + 5] ^= 1;  // flip a payload bit
  const auto frame = FindTagFrame(bits);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->crc_ok);
}

TEST(TagFrame, ExtractMultipleFrames) {
  Rng rng(11);
  BitVector stream;
  for (int i = 0; i < 3; ++i) {
    const BitVector f = EncodeTagFrame(RandomBytes(rng, 4 + i));
    stream.insert(stream.end(), f.begin(), f.end());
    stream.insert(stream.end(), 7, 0);  // inter-frame gap
  }
  const auto frames = ExtractTagFrames(stream);
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(frames[i].crc_ok);
    EXPECT_EQ(frames[i].payload.size(), 4u + i);
  }
}

// -------------------------------------------------------------- redundancy

TEST(Redundancy, LaddersAreSorted) {
  for (auto radio :
       {RadioType::kWifi, RadioType::kZigbee, RadioType::kBluetooth}) {
    const auto ladder = RedundancyLadder(radio);
    for (std::size_t i = 1; i < ladder.size(); ++i) {
      EXPECT_LT(ladder[i - 1], ladder[i]);
    }
  }
}

TEST(Translator, TranslateIntoInPlaceMatchesTranslate) {
  // The slot chain translates into (and may alias) its own buffers;
  // every radio, plain, quaternary and drifted, must match Translate.
  Rng rng(21);
  const IqBuffer wifi = phy80211::BuildFrame(RandomBytes(rng, 300), {}).waveform;
  const IqBuffer zigbee = phy802154::BuildFrame(RandomBytes(rng, 60)).waveform;
  const IqBuffer ble = phyble::BuildFrame(RandomBytes(rng, 100)).waveform;
  struct Case {
    const IqBuffer* wave;
    TranslateConfig config;
  };
  std::vector<Case> cases;
  for (const auto& [wave, radio] :
       {std::pair{&wifi, RadioType::kWifi}, std::pair{&zigbee, RadioType::kZigbee},
        std::pair{&ble, RadioType::kBluetooth}}) {
    TranslateConfig c;
    c.radio = radio;
    c.redundancy = DefaultRedundancy(radio);
    cases.push_back({wave, c});
    c.tag_clock_ppm = 1800.0;
    c.start_slip_samples = -2.6;
    cases.push_back({wave, c});
  }
  TranslateConfig quaternary;
  quaternary.quaternary = true;
  cases.push_back({&wifi, quaternary});
  for (const Case& c : cases) {
    const BitVector bits =
        RandomBits(rng, TagBitCapacity(c.wave->size(), c.config));
    const IqBuffer expected = Translate(*c.wave, bits, c.config);
    IqBuffer in_place = *c.wave;
    TranslateInto(in_place, bits, c.config, in_place);
    EXPECT_EQ(in_place, expected) << static_cast<int>(c.config.radio);
  }
  IqBuffer wrong_size(wifi.size() + 1);
  EXPECT_THROW(TranslateInto(wifi, {}, {}, wrong_size), std::invalid_argument);
  IqBuffer short_out(wifi.size() - 1);
  const std::vector<double> phases{0.0, kPi};
  EXPECT_THROW(tag::ApplyPhasePlanInto(wifi, 0, 80, phases, 1.0, short_out),
               std::invalid_argument);
  const BitVector flags{1, 0};
  EXPECT_THROW(tag::ApplyFskTogglePlanInto(wifi, 0, 80, flags, 1e6, 20e6, 1.0,
                                           short_out),
               std::invalid_argument);
}

}  // namespace
}  // namespace freerider::core
