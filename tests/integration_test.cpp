// Integration tests: cross-module flows exercising the public API the
// way the examples and benches do — multi-packet tag streams, the
// MAC-to-tag control path, and failure injection (truncated captures,
// corrupted fields, wrong channels).
#include <gtest/gtest.h>

#include <algorithm>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/tag_frame.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "mac/plm.h"
#include "mac/repacketizer.h"
#include "mac/slotted_aloha.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"
#include "sim/link.h"
#include "tag/envelope_detector.h"

namespace freerider {
namespace {

// ------------------------------------------------- multi-packet streams

/// Deliver a framed tag message over consecutive WiFi excitation frames
/// and reassemble it at the decoder.
TEST(Integration, TagFrameAcrossMultipleWifiPackets) {
  Rng rng(1);
  const Bytes message = RandomBytes(rng, 40);
  const BitVector stream = core::EncodeTagFrame(message);

  core::TranslateConfig tcfg;  // WiFi N=4
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;

  BitVector received;
  std::size_t sent = 0;
  int packets = 0;
  while (sent < stream.size() && packets < 20) {
    ++packets;
    const phy80211::TxFrame frame =
        phy80211::BuildFrame(RandomBytes(rng, 500), {});
    const std::size_t cap = core::TagBitCapacity(frame.waveform.size(), tcfg);
    BitVector chunk(stream.begin() + static_cast<std::ptrdiff_t>(sent),
                    stream.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(sent + cap, stream.size())));
    sent += chunk.size();
    const IqBuffer bs = core::Translate(
        channel::ToAbsolutePower(frame.waveform, -75.0), chunk, tcfg);
    IqBuffer padded(120, Cplx{0.0, 0.0});
    padded.insert(padded.end(), bs.begin(), bs.end());
    const phy80211::RxResult rx =
        phy80211::ReceiveFrame(channel::AddThermalNoise(padded, fe, rng));
    ASSERT_TRUE(rx.signal_ok);
    const core::TagDecodeResult decoded = core::DecodeWifi(
        frame.data_bits, rx.data_bits,
        phy80211::ParamsFor(frame.rate).data_bits_per_symbol, tcfg.redundancy);
    // Only the bits actually carried in this frame are meaningful.
    received.insert(received.end(), decoded.bits.begin(),
                    decoded.bits.begin() +
                        static_cast<std::ptrdiff_t>(chunk.size()));
  }
  ASSERT_EQ(received.size(), stream.size());
  const auto frames = core::ExtractTagFrames(received);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].crc_ok);
  EXPECT_EQ(frames[0].payload, message);
}

// ----------------------------------------------- MAC-to-tag control path

/// Full downlink: coordinator encodes a slot announcement with PLM, the
/// tag's envelope detector measures the pulses, the message receiver
/// reassembles the payload.
TEST(Integration, PlmControlPathDeliversSlotCount) {
  Rng rng(3);
  const mac::PlmConfig plm;
  const tag::EnvelopeDetector detector;

  // Announce 12 slots in an 8-bit field.
  BitVector payload;
  for (int i = 0; i < 8; ++i) payload.push_back((12 >> i) & 1);
  const BitVector message = mac::BuildPlmMessage(payload);
  const auto pulses = mac::EncodePlm(message, 0.0, -35.0, plm);
  const auto measured = detector.DetectAll(pulses, rng);
  const BitVector bits = mac::DecodePlm(measured, plm);

  mac::PlmMessageReceiver receiver(8);
  std::optional<BitVector> got;
  for (Bit b : bits) {
    if (auto r = receiver.PushBit(b)) got = r;
  }
  ASSERT_TRUE(got.has_value());
  std::size_t slots = 0;
  for (int i = 0; i < 8; ++i) slots |= static_cast<std::size_t>((*got)[i]) << i;
  EXPECT_EQ(slots, 12u);
}

/// Productive PLM end-to-end (§2.4.2): queued traffic is re-packetized
/// into frames whose *real* airtimes encode the control message; the
/// tag's envelope detector measures those airtimes and recovers it.
TEST(Integration, ProductivePlmCarriesRealTraffic) {
  Rng rng(20);
  const mac::RepacketizerConfig config;
  const BitVector payload = RandomBits(rng, 16);
  const BitVector message = mac::BuildPlmMessage(payload);

  // Deep transmit queue: every control frame carries user bytes.
  const auto plan = mac::PlanFrames(1 << 20, message, config);
  EXPECT_DOUBLE_EQ(mac::ProductiveFraction(plan, config), 1.0);

  // Build the actual frames and convert their real airtimes to pulses.
  std::vector<tag::AirPulse> pulses;
  double t = 0.0;
  for (const auto& planned : plan.frames) {
    const phy80211::TxFrame frame = phy80211::BuildFrame(
        RandomBytes(rng, planned.payload_bytes), {});
    const double airtime = phy80211::FrameDurationS(frame);
    pulses.push_back({t, airtime, -40.0});
    t += airtime + config.plm.gap_s;
  }

  const tag::EnvelopeDetector detector;
  const auto measured = detector.DetectAll(pulses, rng);
  const BitVector bits = mac::DecodePlm(measured, config.plm);

  mac::PlmMessageReceiver receiver(16);
  std::optional<BitVector> got;
  for (Bit b : bits) {
    if (auto r = receiver.PushBit(b)) got = r;
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

/// The same frames still decode as ordinary WiFi: every planned payload
/// size goes through the full OFDM chain and comes back intact, so the
/// client keeps its traffic while the frame airtimes carry the message.
TEST(Integration, RepacketizedFramesStillDecodeAsWifi) {
  Rng rng(21);
  const mac::RepacketizerConfig config;
  const BitVector message = mac::BuildPlmMessage(RandomBits(rng, 8));
  const auto plan = mac::PlanFrames(1 << 20, message, config);

  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  for (const auto& planned : plan.frames) {
    const Bytes payload = RandomBytes(rng, planned.payload_bytes);
    const phy80211::TxFrame frame = phy80211::BuildFrame(payload, {});
    IqBuffer padded(100, Cplx{0.0, 0.0});
    padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
    const phy80211::RxResult rx =
        phy80211::ReceiveFrame(channel::ApplyLink(padded, -60.0, fe, rng));
    ASSERT_TRUE(rx.fcs_ok);
    // The PSDU is the payload followed by its 4-byte FCS.
    ASSERT_EQ(rx.psdu.size(), payload.size() + 4);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), rx.psdu.begin()));
  }
}

// -------------------------------------------------- failure injection

TEST(FailureInjection, TruncatedWifiCaptureDoesNotCrash) {
  Rng rng(4);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 200), {});
  // Cut the capture mid-payload.
  IqBuffer truncated(frame.waveform.begin(),
                     frame.waveform.begin() + 1200);
  const phy80211::RxResult rx = phy80211::ReceiveFrame(truncated);
  EXPECT_FALSE(rx.fcs_ok);
}

TEST(FailureInjection, CorruptedSignalFieldRejected) {
  Rng rng(5);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 100), {});
  IqBuffer modified = frame.waveform;
  // Invert the SIGNAL symbol (samples 320..400): rate/parity garbage.
  for (std::size_t i = 320; i < 400; ++i) modified[i] = -modified[i];
  const phy80211::RxResult rx = phy80211::ReceiveFrame(modified);
  EXPECT_TRUE(rx.detected);
  EXPECT_FALSE(rx.signal_ok);
}

TEST(FailureInjection, TinyBuffersAreSafe) {
  IqBuffer empty;
  EXPECT_FALSE(phy80211::ReceiveFrame(empty).detected);
  EXPECT_FALSE(phy802154::ReceiveFrame(empty).detected);
  EXPECT_FALSE(phyble::ReceiveFrame(empty).detected);
  IqBuffer tiny(10, Cplx{1.0, 0.0});
  EXPECT_FALSE(phy80211::ReceiveFrame(tiny).detected);
  EXPECT_FALSE(phy802154::ReceiveFrame(tiny).detected);
  EXPECT_FALSE(phyble::ReceiveFrame(tiny).detected);
}

TEST(FailureInjection, WrongBleChannelFailsCrc) {
  Rng rng(6);
  phyble::TxConfig txcfg;
  txcfg.channel_index = 37;
  const phyble::TxFrame frame = phyble::BuildFrame(RandomBytes(rng, 12), txcfg);
  phyble::RxConfig rxcfg;
  rxcfg.channel_index = 10;  // wrong whitening sequence
  IqBuffer padded(64, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), 64, Cplx{0.0, 0.0});
  const phyble::RxResult rx = phyble::ReceiveFrame(padded, rxcfg);
  // Detection (header) still works — whitening only covers the PDU —
  // but the payload is wrongly de-whitened.
  EXPECT_FALSE(rx.crc_ok);
}

TEST(FailureInjection, WrongAccessAddressNotDetected) {
  Rng rng(7);
  const phyble::TxFrame frame = phyble::BuildFrame(RandomBytes(rng, 12), {});
  phyble::RxConfig rxcfg;
  rxcfg.access_address = 0xDEADBEEF;
  IqBuffer padded(64, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), 64, Cplx{0.0, 0.0});
  EXPECT_FALSE(phyble::ReceiveFrame(padded, rxcfg).detected);
}

TEST(FailureInjection, ZigbeeGarbagePhrRejected) {
  Rng rng(8);
  const phy802154::TxFrame frame = phy802154::BuildFrame(RandomBytes(rng, 30));
  IqBuffer modified = frame.waveform;
  // Stomp the PHR region with noise-like garbage.
  for (std::size_t i = frame.shr_samples;
       i < frame.shr_samples + 2 * phy802154::kSamplesPerSymbol; ++i) {
    modified[i] = rng.NextComplexGaussian() * 0.5;
  }
  const phy802154::RxResult rx = phy802154::ReceiveFrame(modified);
  // Either the length no longer matches a decodable frame or the FCS
  // fails; it must not return a valid frame.
  EXPECT_FALSE(rx.fcs_ok);
}

TEST(FailureInjection, TagStreamWithBurstErrorsStillFramesLater) {
  // A burst of errors destroys one tag frame but the scanner locks onto
  // the next frame's preamble.
  Rng rng(9);
  const Bytes lost = RandomBytes(rng, 10);
  const Bytes kept = RandomBytes(rng, 10);
  BitVector stream = core::EncodeTagFrame(lost);
  for (std::size_t i = 20; i < 60; ++i) stream[i] ^= 1;  // burst
  const BitVector second = core::EncodeTagFrame(kept);
  stream.insert(stream.end(), second.begin(), second.end());
  const auto frames = core::ExtractTagFrames(stream);
  bool found_kept = false;
  for (const auto& f : frames) {
    if (f.crc_ok && f.payload == kept) found_kept = true;
    if (f.crc_ok) {
      EXPECT_NE(f.payload, lost);
    }
  }
  EXPECT_TRUE(found_kept);
}

// --------------------------------------------------- cross-radio parity

TEST(Integration, AllRadiosCarrySameTagPayload) {
  // The same 16-bit tag payload rides each of the three radios.
  Rng rng(10);
  const BitVector tag_bits = RandomBits(rng, 16);

  // WiFi.
  {
    core::TranslateConfig tcfg;
    const phy80211::TxFrame frame =
        phy80211::BuildFrame(RandomBytes(rng, 250), {});
    ASSERT_GE(core::TagBitCapacity(frame.waveform.size(), tcfg), 16u);
    const IqBuffer bs = core::Translate(
        channel::ToAbsolutePower(frame.waveform, -70.0), tag_bits, tcfg);
    IqBuffer padded(100, Cplx{0.0, 0.0});
    padded.insert(padded.end(), bs.begin(), bs.end());
    const phy80211::RxResult rx = phy80211::ReceiveFrame(padded);
    ASSERT_TRUE(rx.signal_ok);
    const auto decoded = core::DecodeWifi(
        frame.data_bits, rx.data_bits,
        phy80211::ParamsFor(frame.rate).data_bits_per_symbol, tcfg.redundancy);
    EXPECT_EQ(BitVector(decoded.bits.begin(), decoded.bits.begin() + 16),
              tag_bits);
  }
  // ZigBee.
  {
    core::TranslateConfig tcfg;
    tcfg.radio = core::RadioType::kZigbee;
    const phy802154::TxFrame frame =
        phy802154::BuildFrame(RandomBytes(rng, 40));
    ASSERT_GE(core::TagBitCapacity(frame.waveform.size(), tcfg), 16u);
    const IqBuffer bs = core::Translate(frame.waveform, tag_bits, tcfg);
    IqBuffer padded(100, Cplx{0.0, 0.0});
    padded.insert(padded.end(), bs.begin(), bs.end());
    const phy802154::RxResult rx = phy802154::ReceiveFrame(padded);
    ASSERT_TRUE(rx.detected);
    const auto decoded = core::DecodeZigbee(frame.data_symbols,
                                            rx.data_symbols, tcfg.redundancy);
    EXPECT_EQ(BitVector(decoded.bits.begin(), decoded.bits.begin() + 16),
              tag_bits);
  }
  // Bluetooth.
  {
    core::TranslateConfig tcfg;
    tcfg.radio = core::RadioType::kBluetooth;
    const phyble::TxFrame frame = phyble::BuildFrame(RandomBytes(rng, 48));
    ASSERT_GE(core::TagBitCapacity(frame.waveform.size(), tcfg), 16u);
    const IqBuffer bs = core::Translate(frame.waveform, tag_bits, tcfg);
    IqBuffer padded(100, Cplx{0.0, 0.0});
    padded.insert(padded.end(), bs.begin(), bs.end());
    padded.insert(padded.end(), 100, Cplx{0.0, 0.0});
    const phyble::RxResult rx = phyble::ReceiveFrame(padded);
    ASSERT_TRUE(rx.detected);
    const auto decoded = core::DecodeBluetooth(frame.stream_bits,
                                               rx.stream_bits, tcfg.redundancy);
    EXPECT_EQ(BitVector(decoded.bits.begin(), decoded.bits.begin() + 16),
              tag_bits);
  }
}

}  // namespace
}  // namespace freerider
