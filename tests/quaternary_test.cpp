#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/multipath.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/quaternary.h"
#include "core/translator.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"

namespace freerider::core {
namespace {

// ------------------------------------------------ rebuild constellation

TEST(Quaternary, RebuildMatchesTransmitter) {
  // The reference pipeline must reproduce the TX constellation exactly
  // when fed the TX's own data bits and seed.
  Rng rng(1);
  phy80211::TxConfig txcfg;
  txcfg.rate = phy80211::Rate::k12Mbps;
  txcfg.scrambler_seed = 0x2F;
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 120), txcfg);
  const IqBuffer expected =
      RebuildConstellation(frame.data_bits, phy80211::ParamsFor(txcfg.rate),
                           txcfg.scrambler_seed, frame.psdu.size());

  // Receive the frame noiselessly and compare the equalized points.
  IqBuffer padded(100, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  phy80211::RxConfig rxcfg;
  rxcfg.collect_constellation = true;
  const phy80211::RxResult rx = phy80211::ReceiveFrame(padded, rxcfg);
  ASSERT_TRUE(rx.signal_ok);
  ASSERT_EQ(rx.constellation.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(std::abs(rx.constellation[i] - expected[i]), 0.0, 1e-6) << i;
  }
}

// --------------------------------------------------- end-to-end decode

struct QuaternaryRun {
  BitVector sent;
  TagDecodeResult decoded;
};

QuaternaryRun RunQuaternaryLink(double rx_dbm, phy80211::Rate rate, Rng& rng) {
  phy80211::TxConfig txcfg;
  txcfg.rate = rate;
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 400), txcfg);
  TranslateConfig tcfg;
  tcfg.quaternary = true;
  tcfg.redundancy = 4;
  QuaternaryRun run;
  run.sent = RandomBits(rng, TagBitCapacity(frame.waveform.size(), tcfg));
  const IqBuffer bs = Translate(
      channel::ToAbsolutePower(frame.waveform, rx_dbm), run.sent, tcfg);

  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(120, Cplx{0.0, 0.0});
  padded.insert(padded.end(), bs.begin(), bs.end());
  phy80211::RxConfig rxcfg;
  rxcfg.collect_constellation = true;
  const phy80211::RxResult rx =
      phy80211::ReceiveFrame(channel::AddThermalNoise(padded, fe, rng), rxcfg);
  if (!rx.signal_ok) return run;

  // Receiver 1's decoded bits = the TX ground truth (strong link).
  const IqBuffer reference =
      RebuildConstellation(frame.data_bits, phy80211::ParamsFor(rate),
                           txcfg.scrambler_seed, frame.psdu.size());
  run.decoded =
      DecodeWifiQuaternary(reference, rx.constellation, tcfg.redundancy);
  return run;
}

TEST(Quaternary, DecodesTwoBitsPerWindowOnQpsk) {
  Rng rng(2);
  const QuaternaryRun run =
      RunQuaternaryLink(-70.0, phy80211::Rate::k12Mbps, rng);
  ASSERT_GE(run.decoded.bits.size(), run.sent.size());
  EXPECT_EQ(BitVector(run.decoded.bits.begin(),
                      run.decoded.bits.begin() +
                          static_cast<std::ptrdiff_t>(run.sent.size())),
            run.sent);
}

TEST(Quaternary, DoublesTagRate) {
  TranslateConfig binary;
  binary.redundancy = 4;
  TranslateConfig quad = binary;
  quad.quaternary = true;
  EXPECT_NEAR(TagBitRateBps(quad), 2.0 * TagBitRateBps(binary), 1.0);
  EXPECT_NEAR(TagBitRateBps(quad), 125000.0, 1.0);
}

TEST(Quaternary, SurvivesModerateNoise) {
  Rng rng(3);
  const QuaternaryRun run =
      RunQuaternaryLink(-84.0, phy80211::Rate::k12Mbps, rng);
  ASSERT_FALSE(run.decoded.bits.empty());
  EXPECT_LT(BitErrorRate(run.sent, run.decoded.bits), 0.02);
}

TEST(Quaternary, WorksOn16Qam) {
  Rng rng(4);
  const QuaternaryRun run =
      RunQuaternaryLink(-70.0, phy80211::Rate::k24Mbps, rng);
  ASSERT_FALSE(run.decoded.bits.empty());
  EXPECT_EQ(BitVector(run.decoded.bits.begin(),
                      run.decoded.bits.begin() +
                          static_cast<std::ptrdiff_t>(run.sent.size())),
            run.sent);
}

TEST(Quaternary, ResidualEvidenceSmallOnCleanLink) {
  Rng rng(5);
  const QuaternaryRun run =
      RunQuaternaryLink(-65.0, phy80211::Rate::k12Mbps, rng);
  for (double residual : run.decoded.diff_fractions) {
    EXPECT_LT(residual, 0.2);
  }
}

// -------------------------------------------------------- multipath

TEST(Multipath, UnitPowerTaps) {
  Rng rng(6);
  const auto mp = channel::MultipathChannel::Rayleigh(5, 3.0, rng);
  double total = 0.0;
  for (const Cplx& t : mp.taps()) total += std::norm(t);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Multipath, SingleTapIsIdentityScale) {
  channel::MultipathChannel mp({Cplx{1.0, 0.0}});
  Rng rng(7);
  IqBuffer x(100);
  for (auto& v : x) v = rng.NextComplexGaussian();
  const IqBuffer y = mp.Apply(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
  }
}

TEST(Multipath, DelaySpreadGrowsWithTaps) {
  Rng rng(8);
  const auto short_ch = channel::MultipathChannel::Rayleigh(2, 3.0, rng);
  const auto long_ch = channel::MultipathChannel::Rayleigh(12, 1.0, rng);
  EXPECT_LT(short_ch.RmsDelaySpreadSamples(), long_ch.RmsDelaySpreadSamples());
}

TEST(Multipath, RejectsEmptyTaps) {
  EXPECT_THROW(channel::MultipathChannel({}), std::invalid_argument);
}

TEST(Multipath, OfdmEqualizesInCpChannel) {
  // Delay spread inside the cyclic prefix: the OFDM receiver must still
  // decode the frame (per-subcarrier equalization).
  Rng rng(9);
  const phy80211::TxFrame frame =
      phy80211::BuildFrame(RandomBytes(rng, 200), {});
  const auto mp = channel::MultipathChannel::Rayleigh(6, 2.0, rng, 10.0);
  IqBuffer faded = mp.Apply(frame.waveform);
  IqBuffer padded(100, Cplx{0.0, 0.0});
  padded.insert(padded.end(), faded.begin(), faded.end());
  const phy80211::RxResult rx = phy80211::ReceiveFrame(padded);
  ASSERT_TRUE(rx.signal_ok);
  EXPECT_TRUE(rx.fcs_ok);
}

TEST(Multipath, OfdmDecodesSignalAcrossInCpChannels) {
  // Rate over many noiseless channels whose taps all fit inside the
  // cyclic prefix. The preamble correlation locks onto the strongest
  // path, often a delayed tap, and a frame that ends with the capture
  // must still decode from that late lock. Detection itself is bounded
  // separately: a channel whose strongest tap holds less than ~30 % of
  // the power correlates below the default 0.55 threshold.
  Rng rng(10);
  constexpr int kChannels = 240;
  int detected = 0;
  int signal_ok = 0;
  int fcs_ok = 0;
  for (int i = 0; i < kChannels; ++i) {
    const phy80211::TxFrame frame =
        phy80211::BuildFrame(RandomBytes(rng, 200), {});
    const auto mp = channel::MultipathChannel::Rayleigh(6, 2.0, rng, 10.0);
    const IqBuffer faded = mp.Apply(frame.waveform);
    IqBuffer padded(100, Cplx{0.0, 0.0});
    padded.insert(padded.end(), faded.begin(), faded.end());
    const phy80211::RxResult rx = phy80211::ReceiveFrame(padded);
    detected += rx.detected ? 1 : 0;
    signal_ok += rx.signal_ok ? 1 : 0;
    fcs_ok += rx.fcs_ok ? 1 : 0;
  }
  EXPECT_GE(detected, kChannels * 9 / 10);
  EXPECT_GE(signal_ok * 100, detected * 99);
  EXPECT_GE(fcs_ok * 100, detected * 99);
}

}  // namespace
}  // namespace freerider::core
