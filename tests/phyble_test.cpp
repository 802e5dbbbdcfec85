#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/signal_ops.h"
#include "phyble/frame.h"
#include "phyble/gfsk.h"
#include "phyble/params.h"
#include "phyble/whitening.h"

namespace freerider::phyble {
namespace {

// ------------------------------------------------------------- whitening

TEST(Whitening, Involution) {
  Rng rng(1);
  const BitVector bits = RandomBits(rng, 300);
  EXPECT_EQ(Whiten(Whiten(bits, 37), 37), bits);
}

TEST(Whitening, DifferentChannelsDiffer) {
  const BitVector zeros(64, 0);
  EXPECT_NE(Whiten(zeros, 0), Whiten(zeros, 1));
}

TEST(Whitening, NonTrivial) {
  const BitVector zeros(64, 0);
  const BitVector w = Whiten(zeros, 37);
  std::size_t ones = 0;
  for (Bit b : w) ones += b;
  EXPECT_GT(ones, 10u);
  EXPECT_LT(ones, 54u);
}

TEST(Whitening, RejectsBadChannel) {
  EXPECT_THROW(Whiten(BitVector(8, 0), 40), std::invalid_argument);
}

// ------------------------------------------------------------------ gfsk

TEST(Gfsk, ConstantEnvelope) {
  Rng rng(2);
  const BitVector bits = RandomBits(rng, 100);
  const IqBuffer wave = ModulateBits(bits);
  for (const Cplx& x : wave) EXPECT_NEAR(std::abs(x), 1.0, 1e-9);
}

TEST(Gfsk, FrequencyMatchesBits) {
  // Long runs of the same bit should settle to ±250 kHz.
  BitVector bits;
  bits.insert(bits.end(), 20, 1);
  bits.insert(bits.end(), 20, 0);
  const IqBuffer wave = ModulateBits(bits);
  const auto freq = Discriminate(wave);
  // Middle of the ones-run.
  EXPECT_NEAR(BitFrequency(freq, 0, 10), kFreqDeviationHz, 20e3);
  // Middle of the zeros-run.
  EXPECT_NEAR(BitFrequency(freq, 0, 30), -kFreqDeviationHz, 20e3);
}

TEST(Gfsk, RoundTripBits) {
  Rng rng(3);
  const BitVector bits = RandomBits(rng, 200);
  const IqBuffer wave = ModulateBits(bits);
  const auto freq = Discriminate(wave);
  for (std::size_t k = 1; k + 1 < bits.size(); ++k) {
    const Bit decided = static_cast<Bit>(BitFrequency(freq, 0, k) >= 0.0);
    EXPECT_EQ(decided, bits[k]) << "bit " << k;
  }
}

TEST(Gfsk, ChannelFilterRejectsOutOfBandTone) {
  // A ±750 kHz tone (the tag's unwanted sideband, Eq. 10) must be
  // strongly attenuated while ±250 kHz codewords pass.
  IqBuffer in_band(4000), out_band(4000);
  for (std::size_t n = 0; n < in_band.size(); ++n) {
    const double t = static_cast<double>(n) / kSampleRateHz;
    in_band[n] = std::polar(1.0, kTwoPi * 250e3 * t);
    out_band[n] = std::polar(1.0, kTwoPi * 750e3 * t);
  }
  const double pass = dsp::MeanPower(ChannelFilter(in_band));
  const double stop = dsp::MeanPower(ChannelFilter(out_band));
  EXPECT_GT(pass, 0.8);
  EXPECT_LT(stop, 0.05);
}

// ----------------------------------------------------------------- frame

TEST(Frame, RoundTripNoiseless) {
  Rng rng(4);
  const Bytes payload = RandomBytes(rng, 20);
  const TxFrame frame = BuildFrame(payload);
  IqBuffer rx(100, Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.waveform.begin(), frame.waveform.end());
  rx.insert(rx.end(), 100, Cplx{0.0, 0.0});
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, frame.payload);
  EXPECT_EQ(result.pdu_bits, frame.pdu_bits);
}

TEST(Frame, RoundTripWithPhaseRotation) {
  // FSK is noncoherent: a constant phase offset must not matter.
  Rng rng(5);
  const Bytes payload = RandomBytes(rng, 12);
  const TxFrame frame = BuildFrame(payload);
  IqBuffer rx(64, Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.waveform.begin(), frame.waveform.end());
  rx = dsp::RotatePhase(rx, 2.5);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, frame.payload);
}

TEST(Frame, DecodesAtHighSnr) {
  Rng rng(6);
  const Bytes payload = RandomBytes(rng, 16);
  const TxFrame frame = BuildFrame(payload);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 6.0;
  IqBuffer padded(128, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), 128, Cplx{0.0, 0.0});
  const IqBuffer rx = channel::ApplyLink(padded, -80.0, fe, rng);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, frame.payload);
}

TEST(Frame, FailsDeepBelowNoise) {
  Rng rng(7);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 16));
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 6.0;
  const IqBuffer rx = channel::ApplyLink(frame.waveform, -130.0, fe, rng);
  EXPECT_FALSE(ReceiveFrame(rx).crc_ok);
}

TEST(Frame, CodewordTranslationViaDeltaFToggle) {
  // The FreeRider Bluetooth mechanism (paper §2.3.3): multiplying the
  // FSK waveform by a square wave at Δf = |f1-f0| = 500 kHz flips every
  // codeword; the receiver's channel filter rejects the unwanted
  // sideband (Eq. 10), so the frame still decodes — with inverted bits.
  Rng rng(8);
  const Bytes payload = RandomBytes(rng, 10);
  const TxFrame frame = BuildFrame(payload);
  IqBuffer rx(64, Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.waveform.begin(), frame.waveform.end());
  const IqBuffer toggled = dsp::SquareWaveMix(rx, kTagDeltaFHz, kSampleRateHz,
                                              kPi / 7.0);

  // A receiver synchronised to the *inverted* header sees every bit
  // flipped. Build the RX with an access address whose bits are the
  // complement (preamble complement is handled by the same trick).
  // Instead of flipping the RX pattern we verify at the bit level: the
  // discriminator output flips sign bit-for-bit versus the original.
  const auto freq_orig = Discriminate(ChannelFilter(rx));
  const auto freq_flip = Discriminate(ChannelFilter(toggled));
  std::size_t flipped = 0;
  std::size_t total = 0;
  for (std::size_t k = 2; k + 2 < frame.air_bits.size(); ++k) {
    const Bit orig = static_cast<Bit>(BitFrequency(freq_orig, 64, k) >= 0.0);
    const Bit flip = static_cast<Bit>(BitFrequency(freq_flip, 64, k) >= 0.0);
    total += 1;
    flipped += (orig != flip);
  }
  // Steady bits flip reliably; isolated bits caught mid-Gaussian
  // transition produce ambiguous double-sideband products near the
  // filter edge and may not flip. This residual codeword error is real
  // physics and is exactly why FreeRider spreads one tag bit over many
  // Bluetooth bits (~50 kb/s tag rate on a 1 Mb/s PHY) and reports
  // elevated Bluetooth BER. Expect a clear majority to flip.
  EXPECT_GT(static_cast<double>(flipped) / static_cast<double>(total), 0.8);
}

TEST(Frame, ToleratesCarrierFrequencyOffset) {
  // A CC2541-class oscillator can sit tens of kHz off; the preamble
  // mean-frequency compensation must absorb it.
  Rng rng(9);
  const Bytes payload = RandomBytes(rng, 16);
  const TxFrame frame = BuildFrame(payload);
  for (double cfo : {-40e3, 25e3, 40e3}) {
    IqBuffer padded(64, Cplx{0.0, 0.0});
    padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
    padded.insert(padded.end(), 64, Cplx{0.0, 0.0});
    const IqBuffer shifted = dsp::MixFrequency(padded, cfo, kSampleRateHz);
    const RxResult rx = ReceiveFrame(shifted);
    ASSERT_TRUE(rx.detected) << cfo;
    EXPECT_TRUE(rx.crc_ok) << cfo;
    EXPECT_EQ(rx.payload, frame.payload) << cfo;
  }
}

TEST(Frame, RejectsOversizedPayload) {
  Bytes big(kMaxPayloadBytes + 1, 0);
  EXPECT_THROW(BuildFrame(big), std::invalid_argument);
}

TEST(Frame, DurationMatchesBitCount) {
  const Bytes payload(10, 0x5A);
  const TxFrame frame = BuildFrame(payload);
  // 8 + 32 + (1+10+3)*8 = 152 bits at 1 Mb/s = 152 us.
  EXPECT_NEAR(FrameDurationS(frame), 152e-6, 2e-6);
}

TEST(Frame, BuildFrameIntoAReusedFrameMatchesAFreshBuild) {
  Rng rng(13);
  TxFrame reused;
  for (const std::size_t len : {200, 1, 255, 0, 37}) {
    const Bytes payload = RandomBytes(rng, len);
    BuildFrameInto(payload, {}, reused);
    const TxFrame fresh = BuildFrame(payload);
    EXPECT_EQ(reused.waveform, fresh.waveform);
    EXPECT_EQ(reused.air_bits, fresh.air_bits);
    EXPECT_EQ(reused.pdu_bits, fresh.pdu_bits);
    EXPECT_EQ(reused.stream_bits, fresh.stream_bits);
    EXPECT_EQ(reused.payload, fresh.payload);
    EXPECT_EQ(reused.header_bits, fresh.header_bits);
  }
}

}  // namespace
}  // namespace freerider::phyble
