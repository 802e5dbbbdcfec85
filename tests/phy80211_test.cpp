#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/rng.h"
#include "dsp/signal_ops.h"
#include "phy80211/constellation.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"
#include "phy80211/receiver.h"
#include "phy80211/scrambler.h"
#include "phy80211/transmitter.h"

namespace freerider::phy80211 {
namespace {

// ------------------------------------------------------------ scrambler

TEST(Scrambler, Involution) {
  Rng rng(1);
  const BitVector data = RandomBits(rng, 500);
  Scrambler a(0x5D);
  Scrambler b(0x5D);
  EXPECT_EQ(b.Process(a.Process(data)), data);
}

TEST(Scrambler, KnownSequenceFromAllOnesSeed) {
  // Clause 17.3.5.5: seed 1111111 produces the 127-bit sequence starting
  // 00001110 11110010 ...
  Scrambler s(0x7F);
  BitVector out;
  for (int i = 0; i < 16; ++i) out.push_back(s.NextBit());
  EXPECT_EQ(BitsToString(out), "0000111011110010");
}

TEST(Scrambler, Period127) {
  Scrambler s(0x35);
  BitVector first;
  for (int i = 0; i < 127; ++i) first.push_back(s.NextBit());
  BitVector second;
  for (int i = 0; i < 127; ++i) second.push_back(s.NextBit());
  EXPECT_EQ(first, second);
}

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0), std::invalid_argument);
}

TEST(Scrambler, SeedRecoveryFromServiceField) {
  for (std::uint8_t seed : {0x01, 0x2A, 0x5D, 0x7F}) {
    Scrambler s(seed);
    const BitVector zeros(7, 0);
    const BitVector scrambled = s.Process(zeros);
    EXPECT_EQ(RecoverScramblerSeed(scrambled), seed);
  }
}

TEST(Scrambler, LinearityUnderXor) {
  // Paper §3.2.1: scrambling is linear, so flipping input bits flips the
  // same output bits. This is the property codeword translation needs.
  Rng rng(2);
  const BitVector data = RandomBits(rng, 200);
  BitVector flipped = data;
  for (std::size_t i = 50; i < 150; ++i) flipped[i] ^= 1;
  Scrambler s1(0x11), s2(0x11);
  const BitVector out1 = s1.Process(data);
  const BitVector out2 = s2.Process(flipped);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Bit expected_diff = (i >= 50 && i < 150) ? 1 : 0;
    EXPECT_EQ(out1[i] ^ out2[i], expected_diff) << "bit " << i;
  }
}

// --------------------------------------------------------- convolutional

TEST(Convolutional, EncodeRate) {
  const BitVector data = BitsFromString("10110010");
  EXPECT_EQ(ConvolutionalEncode(data).size(), 16u);
}

TEST(Convolutional, ViterbiDecodesCleanStream) {
  Rng rng(3);
  BitVector data = RandomBits(rng, 300);
  for (int i = 0; i < 6; ++i) data.push_back(0);  // tail
  const BitVector coded = ConvolutionalEncode(data);
  const BitVector decoded = ViterbiDecode(coded);
  EXPECT_EQ(decoded, data);
}

TEST(Convolutional, ViterbiCorrectsScatteredErrors) {
  Rng rng(4);
  BitVector data = RandomBits(rng, 300);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  BitVector coded = ConvolutionalEncode(data);
  // Flip every 40th coded bit (isolated errors, well within d_free=10).
  for (std::size_t i = 7; i < coded.size(); i += 40) coded[i] ^= 1;
  EXPECT_EQ(ViterbiDecode(coded), data);
}

TEST(Convolutional, ViterbiHandlesErasures) {
  Rng rng(5);
  BitVector data = RandomBits(rng, 200);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  BitVector coded = ConvolutionalEncode(data);
  for (std::size_t i = 3; i < coded.size(); i += 10) coded[i] = 2;  // erase
  EXPECT_EQ(ViterbiDecode(coded), data);
}

class PunctureRoundTrip : public ::testing::TestWithParam<CodingRate> {};

TEST_P(PunctureRoundTrip, DepunctureViterbiRecovers) {
  Rng rng(6);
  BitVector data = RandomBits(rng, 240);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  const BitVector mother = ConvolutionalEncode(data);
  const BitVector punctured = Puncture(mother, GetParam());
  BitVector restored;
  DepunctureInto(punctured, GetParam(), mother.size(), restored);
  ASSERT_EQ(restored.size(), mother.size());
  EXPECT_EQ(ViterbiDecode(restored), data);
}

INSTANTIATE_TEST_SUITE_P(Rates, PunctureRoundTrip,
                         ::testing::Values(CodingRate::kHalf,
                                           CodingRate::kTwoThirds,
                                           CodingRate::kThreeQuarters));

TEST(Convolutional, PunctureLengths) {
  BitVector data(120, 0);
  const BitVector mother = ConvolutionalEncode(data);  // 240
  EXPECT_EQ(Puncture(mother, CodingRate::kHalf).size(), 240u);
  EXPECT_EQ(Puncture(mother, CodingRate::kTwoThirds).size(), 180u);
  EXPECT_EQ(Puncture(mother, CodingRate::kThreeQuarters).size(), 160u);
}

TEST(Convolutional, LinearityOfCode) {
  // Eq. 9 discussion: the code is linear, so encode(a ^ b) =
  // encode(a) ^ encode(b). This underpins XOR tag decoding.
  Rng rng(7);
  const BitVector a = RandomBits(rng, 100);
  const BitVector b = RandomBits(rng, 100);
  const BitVector xored = XorBits(a, b);
  EXPECT_EQ(ConvolutionalEncode(xored),
            XorBits(ConvolutionalEncode(a), ConvolutionalEncode(b)));
}

// ----------------------------------------------------------- interleaver

class InterleaverRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleaverRoundTrip, Bijective) {
  const RateParams& params = kRateTable[GetParam()];
  Rng rng(8 + GetParam());
  const BitVector bits = RandomBits(rng, params.coded_bits_per_symbol);
  BitVector restored;
  DeinterleaveSymbolInto(InterleaveSymbol(bits, params), params, restored);
  EXPECT_EQ(restored, bits);
}

INSTANTIATE_TEST_SUITE_P(AllRates, InterleaverRoundTrip,
                         ::testing::Range<std::size_t>(0, 8));

TEST(Interleaver, NeverCrossesSymbolBoundary) {
  // Paper §3.2.1: interleaving is per OFDM symbol, so a tag bit spanning
  // whole symbols is unaffected. Verify symbol independence.
  const RateParams& params = ParamsFor(Rate::k12Mbps);
  Rng rng(9);
  const BitVector sym1 = RandomBits(rng, params.coded_bits_per_symbol);
  const BitVector sym2 = RandomBits(rng, params.coded_bits_per_symbol);
  BitVector both = sym1;
  both.insert(both.end(), sym2.begin(), sym2.end());
  const BitVector interleaved = InterleaveStream(both, params);
  const BitVector i1 = InterleaveSymbol(sym1, params);
  const BitVector i2 = InterleaveSymbol(sym2, params);
  BitVector expected = i1;
  expected.insert(expected.end(), i2.begin(), i2.end());
  EXPECT_EQ(interleaved, expected);
}

TEST(Interleaver, RejectsWrongSize) {
  const RateParams& params = ParamsFor(Rate::k6Mbps);
  BitVector bits(47, 0);
  EXPECT_THROW(InterleaveSymbol(bits, params), std::invalid_argument);
}

// --------------------------------------------------------- constellation

class ConstellationRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationRoundTrip, MapDemapIsIdentity) {
  Rng rng(10);
  const std::size_t bps = BitsPerSymbol(GetParam());
  const BitVector bits = RandomBits(rng, bps * 100);
  const IqBuffer symbols = MapBits(bits, GetParam());
  EXPECT_EQ(DemapSymbols(symbols, GetParam()), bits);
}

INSTANTIATE_TEST_SUITE_P(AllMods, ConstellationRoundTrip,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

class ConstellationPower : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationPower, UnitAveragePower) {
  Rng rng(11);
  const std::size_t bps = BitsPerSymbol(GetParam());
  const BitVector bits = RandomBits(rng, bps * 6000);
  const IqBuffer symbols = MapBits(bits, GetParam());
  EXPECT_NEAR(dsp::MeanPower(symbols), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllMods, ConstellationPower,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

class Rotation180 : public ::testing::TestWithParam<Modulation> {};

TEST_P(Rotation180, MapsConstellationToItself) {
  // The codeword-translation property (paper §2.3.1): a 180° phase shift
  // maps every valid point to another valid point of the same codebook.
  Rng rng(12);
  const std::size_t bps = BitsPerSymbol(GetParam());
  const BitVector bits = RandomBits(rng, bps * 64);
  IqBuffer symbols = MapBits(bits, GetParam());
  for (auto& s : symbols) s = -s;
  for (const Cplx& s : symbols) {
    EXPECT_TRUE(IsValidConstellationPoint(s, GetParam(), 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMods, Rotation180,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

class NearestPoints : public ::testing::TestWithParam<Modulation> {};

TEST_P(NearestPoints, MatchBitRoundTripBitForBit) {
  // The phase tracker's slicer must equal Map(Demap(p)) to the last bit:
  // on random points and on the decision edges (+-0, +-2, +-4 on the
  // normalized axis, just either side of them) and NaN.
  const Modulation mod = GetParam();
  const double unit = mod == Modulation::kQam16   ? 0.31622776601683794
                      : mod == Modulation::kQam64 ? 0.1543033499620919
                                                  : 1.0;
  std::vector<double> axis = {std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::quiet_NaN()};
  for (const double edge : {0.0, 2.0, 4.0, 6.0}) {
    for (const double sign : {1.0, -1.0}) {
      const double v = sign * edge * unit;
      axis.insert(axis.end(), {v, std::nextafter(v, 1e9),
                               std::nextafter(v, -1e9)});
    }
  }
  IqBuffer points;
  for (const double re : axis) {
    for (const double im : axis) points.emplace_back(re, im);
  }
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    points.emplace_back(1.5 * rng.NextGaussian(), 1.5 * rng.NextGaussian());
  }
  const IqBuffer want = MapBits(DemapSymbols(points, mod), mod);
  IqBuffer got{Cplx{9.0, 9.0}};  // stale contents must not leak
  NearestPointsInto(points, mod, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(Cplx)), 0)
        << "point " << points[i] << " got " << got[i] << " want " << want[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllMods, NearestPoints,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Constellation, AmplitudeScalingCreatesInvalidCodewords) {
  // Fig. 2: shrinking a 16-QAM point's amplitude does NOT land on a
  // valid point in general.
  const BitVector bits = BitsFromString("1000");  // some outer point
  const IqBuffer symbols = MapBits(bits, Modulation::kQam16);
  const Cplx scaled = symbols[0] * 0.6;
  EXPECT_FALSE(IsValidConstellationPoint(scaled, Modulation::kQam16, 0.05));
}

// ------------------------------------------------------------------ ofdm

TEST(Ofdm, DataSubcarrierCount) {
  EXPECT_EQ(DataSubcarriers().size(), 48u);
  for (int sc : DataSubcarriers()) {
    EXPECT_NE(sc, 0);
    EXPECT_NE(std::abs(sc), 7);
    EXPECT_NE(std::abs(sc), 21);
    EXPECT_LE(std::abs(sc), 26);
  }
}

TEST(Ofdm, PilotPolarityPeriodic) {
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(PilotPolarity(i), PilotPolarity(i + 127));
  }
  EXPECT_EQ(PilotPolarity(0), 1.0);
}

TEST(Ofdm, SymbolRoundTrip) {
  Rng rng(13);
  const BitVector bits = RandomBits(rng, 48);
  const IqBuffer points = MapBits(bits, Modulation::kBpsk);
  IqBuffer symbol(kSymbolLen);
  ModulateSymbolInto(points, 3, symbol);
  IqBuffer bins;
  DemodulateSymbolInto(symbol, bins);
  // Build the reference "channel" = flat TX scale.
  IqBuffer flat(kFftSize, Cplx{64.0 / std::sqrt(52.0), 0.0});
  IqBuffer data;
  ExtractDataSubcarriersInto(bins, flat, data);
  EXPECT_EQ(DemapSymbols(data, Modulation::kBpsk), bits);
}

TEST(Ofdm, SymbolUnitPower) {
  Rng rng(14);
  const IqBuffer points = MapBits(RandomBits(rng, 96), Modulation::kQpsk);
  IqBuffer symbol(kSymbolLen);
  ModulateSymbolInto(std::span<const Cplx>(points).subspan(0, 48), 1, symbol);
  EXPECT_NEAR(dsp::MeanPower(symbol), 1.0, 0.35);
}

TEST(Ofdm, TrainingFieldLengths) {
  EXPECT_EQ(ShortTrainingField().size(), 160u);
  EXPECT_EQ(LongTrainingField().size(), 160u);
  EXPECT_EQ(LongTrainingSymbol64().size(), 64u);
}

TEST(Ofdm, LtfIsRepeated) {
  const IqBuffer ltf = LongTrainingField();
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[32 + 64 + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, PilotPhaseErrorDetectsRotation) {
  Rng rng(15);
  const IqBuffer points = MapBits(RandomBits(rng, 48), Modulation::kBpsk);
  IqBuffer symbol(kSymbolLen);
  ModulateSymbolInto(points, 5, symbol);
  const double theta = 0.7;
  symbol = dsp::RotatePhase(symbol, theta);
  IqBuffer bins;
  DemodulateSymbolInto(symbol, bins);
  IqBuffer flat(kFftSize, Cplx{64.0 / std::sqrt(52.0), 0.0});
  EXPECT_NEAR(PilotPhaseError(bins, flat, 5), theta, 1e-6);
}

// ---------------------------------------------------------- full tx/rx

IqBuffer CleanChannel(const IqBuffer& wave, double rx_dbm, double nf_db,
                      Rng& rng) {
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = nf_db;
  return channel::ApplyLink(wave, rx_dbm, fe, rng);
}

IqBuffer WithPadding(const IqBuffer& wave, std::size_t pad, Rng& rng,
                     double noise_dbm = -300.0) {
  IqBuffer out(pad, Cplx{0.0, 0.0});
  out.insert(out.end(), wave.begin(), wave.end());
  out.insert(out.end(), pad, Cplx{0.0, 0.0});
  (void)rng;
  (void)noise_dbm;
  return out;
}

class FullChain : public ::testing::TestWithParam<Rate> {};

TEST_P(FullChain, DecodesNoiselessFrame) {
  Rng rng(16);
  const Bytes payload = RandomBytes(rng, 100);
  TxConfig cfg;
  cfg.rate = GetParam();
  const TxFrame frame = BuildFrame(payload, cfg);
  const IqBuffer rx = WithPadding(frame.waveform, 100, rng);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  ASSERT_TRUE(result.signal_ok);
  EXPECT_EQ(result.rate, GetParam());
  EXPECT_EQ(result.psdu_len, payload.size() + 4);
  EXPECT_TRUE(result.fcs_ok);
  ASSERT_EQ(result.psdu.size(), frame.psdu.size());
  EXPECT_EQ(result.psdu, frame.psdu);
  EXPECT_EQ(result.data_bits, frame.data_bits);
}

INSTANTIATE_TEST_SUITE_P(AllRates, FullChain,
                         ::testing::Values(Rate::k6Mbps, Rate::k9Mbps,
                                           Rate::k12Mbps, Rate::k18Mbps,
                                           Rate::k24Mbps, Rate::k36Mbps,
                                           Rate::k48Mbps, Rate::k54Mbps));

TEST(FullChainNoise, DecodesAtHighSnr) {
  Rng rng(17);
  const Bytes payload = RandomBytes(rng, 200);
  const TxFrame frame = BuildFrame(payload, {});
  // -60 dBm into a -97 dBm floor: 37 dB SNR.
  const IqBuffer rx = CleanChannel(WithPadding(frame.waveform, 200, rng), -60.0,
                                   4.0, rng);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, frame.psdu);
}

TEST(FullChainNoise, FailsFarBelowNoiseFloor) {
  Rng rng(18);
  const Bytes payload = RandomBytes(rng, 50);
  const TxFrame frame = BuildFrame(payload, {});
  const IqBuffer rx = CleanChannel(WithPadding(frame.waveform, 200, rng),
                                   -120.0, 4.0, rng);
  const RxResult result = ReceiveFrame(rx);
  EXPECT_FALSE(result.fcs_ok);
}

TEST(FullChainNoise, RssiTracksReceivePower) {
  Rng rng(19);
  const Bytes payload = RandomBytes(rng, 100);
  const TxFrame frame = BuildFrame(payload, {});
  const IqBuffer rx =
      CleanChannel(WithPadding(frame.waveform, 50, rng), -55.0, 4.0, rng);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_NEAR(result.rssi_dbm, -55.0, 1.5);
}

TEST(FullChain, NoFalseDetectInPureNoise) {
  Rng rng(20);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 4.0;
  IqBuffer silence(20000, Cplx{0.0, 0.0});
  const IqBuffer noise = channel::AddThermalNoise(silence, fe, rng);
  const RxResult result = ReceiveFrame(noise);
  EXPECT_FALSE(result.detected);
}

TEST(FullChain, ScramblerSeedRecovered) {
  Rng rng(21);
  TxConfig cfg;
  cfg.scrambler_seed = 0x2B;
  const TxFrame frame = BuildFrame(RandomBytes(rng, 60), cfg);
  const RxResult result = ReceiveFrame(WithPadding(frame.waveform, 64, rng));
  ASSERT_TRUE(result.signal_ok);
  EXPECT_EQ(result.scrambler_seed, 0x2B);
}

TEST(FullChain, DurationHelpersConsistent) {
  Rng rng(22);
  const Bytes payload = RandomBytes(rng, 96);
  const TxFrame frame = BuildFrame(payload, {});
  EXPECT_EQ(frame.num_data_symbols, NumDataSymbols(payload.size() + 4,
                                                   Rate::k6Mbps));
  const double duration = FrameDurationS(frame);
  const std::size_t psdu = PsduBytesForDuration(duration, Rate::k6Mbps);
  // Inverse within one symbol's worth of bytes.
  EXPECT_NEAR(static_cast<double>(psdu),
              static_cast<double>(payload.size() + 4), 4.0);
}

class CfoTolerance : public ::testing::TestWithParam<double> {};

TEST_P(CfoTolerance, DecodesWithOscillatorOffset) {
  // ±40 ppm at 2.45 GHz is ~±100 kHz; the STF/LTF-based estimator must
  // absorb it (without correction the constellation spins and decoding
  // collapses — see the companion test below).
  Rng rng(35);
  const Bytes payload = RandomBytes(rng, 200);
  const TxFrame frame = BuildFrame(payload, {});
  IqBuffer padded = WithPadding(frame.waveform, 250, rng);
  const IqBuffer shifted =
      dsp::MixFrequency(padded, GetParam(), kSampleRateHz);
  const RxResult result = ReceiveFrame(shifted);
  ASSERT_TRUE(result.signal_ok) << GetParam();
  EXPECT_TRUE(result.fcs_ok) << GetParam();
  EXPECT_NEAR(result.cfo_hz, GetParam(), 2e3) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Offsets, CfoTolerance,
                         ::testing::Values(-100e3, -40e3, -5e3, 5e3, 40e3,
                                           100e3));

TEST(CfoToleranceOff, UncorrectedCfoBreaksDecoding) {
  Rng rng(38);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 200), {});
  IqBuffer padded = WithPadding(frame.waveform, 250, rng);
  const IqBuffer shifted = dsp::MixFrequency(padded, 80e3, kSampleRateHz);
  RxConfig rxcfg;
  rxcfg.cfo_correction = false;
  const RxResult result = ReceiveFrame(shifted, rxcfg);
  EXPECT_FALSE(result.fcs_ok);
}

class SoftChain : public ::testing::TestWithParam<Rate> {};

TEST_P(SoftChain, SoftDecisionDecodesNoiselessFrame) {
  Rng rng(36);
  const Bytes payload = RandomBytes(rng, 120);
  TxConfig cfg;
  cfg.rate = GetParam();
  const TxFrame frame = BuildFrame(payload, cfg);
  const IqBuffer rx = WithPadding(frame.waveform, 100, rng);
  RxConfig rxcfg;
  rxcfg.soft_decision = true;
  const RxResult result = ReceiveFrame(rx, rxcfg);
  ASSERT_TRUE(result.signal_ok);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, frame.psdu);
  EXPECT_EQ(result.data_bits, frame.data_bits);
}

INSTANTIATE_TEST_SUITE_P(AllRates, SoftChain,
                         ::testing::Values(Rate::k6Mbps, Rate::k9Mbps,
                                           Rate::k12Mbps, Rate::k18Mbps,
                                           Rate::k24Mbps, Rate::k36Mbps,
                                           Rate::k48Mbps, Rate::k54Mbps));

TEST(SoftChainGain, SoftBeatsHardAtMarginalSnr) {
  // At an SNR where the hard decoder struggles, the soft decoder's
  // ~2 dB of extra coding gain shows as a higher frame success rate.
  Rng rng(37);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  int hard_ok = 0;
  int soft_ok = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    TxConfig txcfg;
    txcfg.rate = Rate::k12Mbps;  // QPSK 1/2: marginal near 6 dB SNR
    const TxFrame frame = BuildFrame(RandomBytes(rng, 150), txcfg);
    const IqBuffer rx = channel::ApplyLink(
        WithPadding(frame.waveform, 120, rng), -91.5, fe, rng);
    RxConfig hard;
    RxConfig soft;
    soft.soft_decision = true;
    hard_ok += ReceiveFrame(rx, hard).fcs_ok;
    soft_ok += ReceiveFrame(rx, soft).fcs_ok;
  }
  EXPECT_GT(soft_ok, hard_ok);
}

TEST(FullChain, PhaseFlippedPayloadStillDecodesWithXorPattern) {
  // Core codeword-translation property on a real frame: negate (180°
  // rotate) all DATA samples of whole OFDM symbols; the receiver still
  // decodes a frame, and the decoded bits differ from the original in a
  // structured way (this is what the tag exploits).
  Rng rng(23);
  const Bytes payload = RandomBytes(rng, 96);
  const TxFrame frame = BuildFrame(payload, {});
  IqBuffer modified = frame.waveform;
  // Flip symbols 4..7 of the DATA field (one tag bit over 4 symbols).
  const std::size_t start = frame.preamble_samples + 4 * kSymbolLen;
  for (std::size_t i = 0; i < 4 * kSymbolLen; ++i) {
    modified[start + i] = -modified[start + i];
  }
  const RxResult result = ReceiveFrame(WithPadding(modified, 64, rng));
  ASSERT_TRUE(result.signal_ok);
  // FCS fails (payload bits changed)...
  EXPECT_FALSE(result.fcs_ok);
  // ...but the XOR against the original stream is confined to the
  // flipped window (plus coder boundary effects).
  const BitVector diff = XorBits(result.data_bits, frame.data_bits);
  const auto& params = ParamsFor(Rate::k6Mbps);
  const std::size_t ndbps = params.data_bits_per_symbol;
  std::size_t diff_in_window = 0;
  std::size_t diff_outside = 0;
  for (std::size_t i = 0; i < diff.size(); ++i) {
    const std::size_t sym = i / ndbps;
    if (sym >= 4 && sym < 8) {
      diff_in_window += diff[i];
    } else {
      diff_outside += diff[i];
    }
  }
  // Most of the 96 window bits flip; only boundary bits leak outside.
  EXPECT_GT(diff_in_window, 60u);
  EXPECT_LT(diff_outside, 20u);
}

TEST(Transmitter, FrameSamplesMatchesBuiltWaveform) {
  for (const auto& params : kRateTable) {
    for (const std::size_t len : {0, 1, 23, 100, 800, 1500}) {
      const Bytes payload(len, 0xA5);
      const TxFrame frame = BuildFrame(payload, {params.rate, 0x5D});
      EXPECT_EQ(FrameSamples(len, params.rate), frame.waveform.size())
          << params.mbps << " Mb/s, " << len << " B";
    }
  }
}

TEST(Transmitter, BuildFrameIntoAReusedFrameMatchesAFreshBuild) {
  // Rebuild one frame object across rates and shrinking/growing sizes:
  // nothing of a larger earlier frame may leak into a later one.
  Rng rng(5);
  TxFrame reused;
  for (const std::size_t len : {800, 3, 200, 1500, 0}) {
    for (const auto& params : kRateTable) {
      const Bytes payload = RandomBytes(rng, len);
      const TxConfig config{params.rate, 0x2B};
      BuildFrameInto(payload, config, reused);
      const TxFrame fresh = BuildFrame(payload, config);
      EXPECT_EQ(reused.waveform, fresh.waveform);
      EXPECT_EQ(reused.data_bits, fresh.data_bits);
      EXPECT_EQ(reused.psdu, fresh.psdu);
      EXPECT_EQ(reused.num_data_symbols, fresh.num_data_symbols);
      EXPECT_EQ(reused.preamble_samples, fresh.preamble_samples);
      EXPECT_EQ(reused.rate, fresh.rate);
    }
  }
}

TEST(Ofdm, ModulateSymbolIntoRejectsAWrongSizedOutput) {
  const IqBuffer points(kNumDataSubcarriers, Cplx{1.0, 0.0});
  IqBuffer short_out(kSymbolLen - 1);
  EXPECT_THROW(ModulateSymbolInto(points, 9, short_out), std::invalid_argument);
}

}  // namespace
}  // namespace freerider::phy80211
