#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "channel/awgn.h"
#include "common/crc.h"
#include "common/rng.h"
#include "dsp/signal_ops.h"
#include "phy802154/chips.h"
#include "phy802154/frame.h"
#include "phy802154/oqpsk.h"
#include "phy802154/params.h"
#include "phy802154/shr.h"

namespace freerider::phy802154 {
namespace {

// ----------------------------------------------------------------- chips

TEST(Chips, SixteenDistinctSequences) {
  std::set<std::string> seen;
  for (std::uint8_t s = 0; s < 16; ++s) {
    const ChipSequence& seq = ChipsForSymbol(s);
    std::string key(seq.begin(), seq.end());
    seen.insert(key);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Chips, KnownSymbolZeroSequence) {
  const ChipSequence& c0 = ChipsForSymbol(0);
  const Bit expected[32] = {1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
                            0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0};
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(c0[i], expected[i]) << i;
}

TEST(Chips, SymbolOneIsRightRotationByFour) {
  const ChipSequence& c0 = ChipsForSymbol(0);
  const ChipSequence& c1 = ChipsForSymbol(1);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(c1[(i + 4) % 32], c0[i]);
  }
}

TEST(Chips, UpperSymbolsInvertOddChips) {
  const ChipSequence& c0 = ChipsForSymbol(0);
  const ChipSequence& c8 = ChipsForSymbol(8);
  for (std::size_t i = 0; i < 32; ++i) {
    if (i % 2 == 1) {
      EXPECT_NE(c8[i], c0[i]) << i;
    } else {
      EXPECT_EQ(c8[i], c0[i]) << i;
    }
  }
}

TEST(Chips, MinimumInterCodewordDistance) {
  // The codebook should have healthy minimum distance (the standard's
  // sequences have pairwise Hamming distances >= 12).
  for (std::uint8_t a = 0; a < 16; ++a) {
    for (std::uint8_t b = 0; b < 16; ++b) {
      if (a == b) continue;
      const ChipSequence& sa = ChipsForSymbol(a);
      const ChipSequence& sb = ChipsForSymbol(b);
      int d = 0;
      for (std::size_t i = 0; i < 32; ++i) d += (sa[i] != sb[i]);
      EXPECT_GE(d, 12) << static_cast<int>(a) << " vs " << static_cast<int>(b);
    }
  }
}

TEST(Chips, DespreadExact) {
  for (std::uint8_t s = 0; s < 16; ++s) {
    const ChipSequence& seq = ChipsForSymbol(s);
    const DespreadResult r =
        DespreadChips(std::span<const Bit>(seq.data(), seq.size()));
    EXPECT_EQ(r.symbol, s);
    EXPECT_EQ(r.distance, 0);
  }
}

TEST(Chips, DespreadTolerates5ChipErrors) {
  Rng rng(1);
  for (std::uint8_t s = 0; s < 16; ++s) {
    BitVector chips(ChipsForSymbol(s).begin(), ChipsForSymbol(s).end());
    std::set<std::size_t> flipped;
    while (flipped.size() < 5) flipped.insert(rng.NextBelow(32));
    for (std::size_t i : flipped) chips[i] ^= 1;
    EXPECT_EQ(DespreadChips(chips).symbol, s);
  }
}

TEST(Chips, TranslatedSymbolIsDeterministicAndDifferent) {
  // Paper §2.3.2 + our chips.h note: full chip inversion lands on a
  // deterministic *other* symbol — the translated codeword a coherent
  // receiver reports when the tag flips phase by 180°.
  for (std::uint8_t s = 0; s < 16; ++s) {
    const std::uint8_t t1 = TranslatedSymbol(s);
    const std::uint8_t t2 = TranslatedSymbol(s);
    EXPECT_EQ(t1, t2);
    EXPECT_NE(t1, s);
  }
}

TEST(Chips, BytesSymbolsRoundTrip) {
  Rng rng(2);
  const Bytes bytes = RandomBytes(rng, 33);
  Bytes restored;
  SymbolsToBytesInto(BytesToSymbols(bytes), restored);
  EXPECT_EQ(restored, bytes);
}

TEST(Chips, LowNibbleFirst) {
  const Bytes one = {0xA7};
  const auto symbols = BytesToSymbols(one);
  ASSERT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols[0], 0x7);
  EXPECT_EQ(symbols[1], 0xA);
}

// ----------------------------------------------------------------- oqpsk

TEST(Oqpsk, RoundTripCleanChips) {
  Rng rng(3);
  BitVector chips = RandomBits(rng, 64);
  const IqBuffer wave = ModulateChips(chips);
  BitVector demod;
  DemodulateChipsInto(wave, 0, chips.size(), demod);
  EXPECT_EQ(demod, chips);
}

TEST(Oqpsk, UnitMeanPower) {
  Rng rng(4);
  const BitVector chips = RandomBits(rng, 512);
  const IqBuffer wave = ModulateChips(chips);
  EXPECT_NEAR(dsp::MeanPower(wave), 1.0, 0.1);
}

TEST(Oqpsk, RejectsOddChipCount) {
  BitVector chips(31, 0);
  EXPECT_THROW(ModulateChips(chips), std::invalid_argument);
}

TEST(Oqpsk, PhaseFlipInvertsChips) {
  Rng rng(5);
  const BitVector chips = RandomBits(rng, 64);
  IqBuffer wave = ModulateChips(chips);
  for (auto& x : wave) x = -x;
  BitVector demod;
  DemodulateChipsInto(wave, 0, chips.size(), demod);
  ASSERT_EQ(demod.size(), chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    EXPECT_EQ(demod[i], chips[i] ^ 1) << i;
  }
}

// ----------------------------------------------------------------- frame

TEST(Frame, RoundTripNoiseless) {
  Rng rng(6);
  const Bytes payload = RandomBytes(rng, 40);
  const TxFrame frame = BuildFrame(payload);
  IqBuffer rx(64, Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.waveform.begin(), frame.waveform.end());
  rx.insert(rx.end(), 64, Cplx{0.0, 0.0});
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, frame.psdu);
  EXPECT_EQ(result.data_symbols, frame.data_symbols);
  EXPECT_DOUBLE_EQ(result.mean_chip_distance, 0.0);
}

TEST(Frame, RoundTripWithRotatedChannel) {
  // A constant channel phase must be absorbed by the SHR phase lock.
  Rng rng(7);
  const Bytes payload = RandomBytes(rng, 20);
  const TxFrame frame = BuildFrame(payload);
  IqBuffer rx(32, Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.waveform.begin(), frame.waveform.end());
  rx = dsp::RotatePhase(rx, 1.234);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, frame.psdu);
}

TEST(Frame, DecodesAtModerateSnr) {
  Rng rng(8);
  const Bytes payload = RandomBytes(rng, 30);
  const TxFrame frame = BuildFrame(payload);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(128, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), 128, Cplx{0.0, 0.0});
  // -95 dBm against a ~ -99.9 dBm full-rate floor; DSSS gain does the rest.
  const IqBuffer rx = channel::ApplyLink(padded, -95.0, fe, rng);
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, frame.psdu);
}

TEST(Frame, FailsDeepBelowNoise) {
  Rng rng(9);
  const Bytes payload = RandomBytes(rng, 30);
  const TxFrame frame = BuildFrame(payload);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  const IqBuffer rx = channel::ApplyLink(frame.waveform, -125.0, fe, rng);
  const RxResult result = ReceiveFrame(rx);
  EXPECT_FALSE(result.fcs_ok);
}

TEST(Frame, RejectsOversizedPayload) {
  Bytes big(kMaxPsduBytes, 0);
  EXPECT_THROW(BuildFrame(big), std::invalid_argument);
}

TEST(Frame, FlippedWindowDecodesTranslatedSymbols) {
  // Tag behaviour end-to-end: 180°-flip a run of whole symbols in the
  // PSDU region; the receiver decodes exactly the translated codewords
  // there and the original symbols elsewhere.
  Rng rng(10);
  const Bytes payload = RandomBytes(rng, 24);
  const TxFrame frame = BuildFrame(payload);
  IqBuffer modified = frame.waveform;
  // Flip data symbols 4..11 (8 symbols, as paper §3.2.2 suggests N=8).
  const std::size_t flip_begin =
      frame.shr_samples + 4 * kSamplesPerSymbol;
  const std::size_t flip_len = 8 * kSamplesPerSymbol;
  for (std::size_t i = 0; i < flip_len; ++i) {
    modified[flip_begin + i] = -modified[flip_begin + i];
  }
  IqBuffer rx(32, Cplx{0.0, 0.0});
  rx.insert(rx.end(), modified.begin(), modified.end());
  const RxResult result = ReceiveFrame(rx);
  ASSERT_TRUE(result.detected);
  ASSERT_EQ(result.data_symbols.size(), frame.data_symbols.size());
  int translated = 0;
  int matching = 0;
  for (std::size_t s = 0; s < result.data_symbols.size(); ++s) {
    if (s >= 5 && s < 11) {
      // Interior of the flipped window (boundary symbols are corrupted
      // by the half-chip O-QPSK offset, which is the paper's point).
      EXPECT_EQ(result.data_symbols[s], TranslatedSymbol(frame.data_symbols[s]))
          << "symbol " << s;
      ++translated;
    } else if (s < 3 || s > 12) {
      EXPECT_EQ(result.data_symbols[s], frame.data_symbols[s]) << "symbol " << s;
      ++matching;
    }
  }
  EXPECT_GT(translated, 0);
  EXPECT_GT(matching, 0);
}

TEST(Frame, DurationMatchesBitBudget) {
  const Bytes payload(10, 0xAB);
  const TxFrame frame = BuildFrame(payload);
  // (8+2 SHR + 2 PHR + 24 PSDU) symbols * 16 us  = 576 us, plus the
  // single trailing pulse tail.
  EXPECT_NEAR(FrameDurationS(frame), 576e-6, 2e-6);
}

// ------------------------------------------------- SHR search equivalence
//
// ReceiveFrame must return exactly what the brute-force receiver below
// returns: the normalized SHR correlation evaluated at every position
// with the sequential std::complex chain, strict `>` (the earliest of
// tied peaks wins) and the `window_energy > 0` gate, then the PHR/PSDU
// decode. This oracle is the receiver as it was before the SHR search
// became filter-and-refine; every RxResult field is compared exactly.

const IqBuffer& OracleReference() {
  static const IqBuffer ref = [] {
    const std::vector<std::uint8_t> symbols = {0, 0, 0x7, 0xA};
    return ModulateChips(SpreadSymbols(symbols));
  }();
  return ref;
}

double OracleNcorr(const IqBuffer& rx, std::size_t n, double window_energy) {
  const IqBuffer& ref = OracleReference();
  double ref_energy = 0.0;
  for (const Cplx& x : ref) ref_energy += std::norm(x);
  Cplx c{0.0, 0.0};
  for (std::size_t k = 0; k < ref.size(); ++k) c += rx[n + k] * std::conj(ref[k]);
  return std::abs(c) / std::sqrt(window_energy * ref_energy);
}

RxResult OracleReceiveFrame(const IqBuffer& rx, const RxConfig& config = {}) {
  RxResult result;
  const IqBuffer& ref = OracleReference();
  if (rx.size() < ref.size() + kSamplesPerSymbol) return result;
  const std::size_t positions = rx.size() - ref.size() + 1;
  double ref_energy = 0.0;
  for (const Cplx& x : ref) ref_energy += std::norm(x);
  double best = 0.0;
  std::size_t best_pos = 0;
  Cplx best_corr{0.0, 0.0};
  double window_energy = 0.0;
  for (std::size_t n = 0; n < ref.size(); ++n) window_energy += std::norm(rx[n]);
  for (std::size_t n = 0; n < positions; ++n) {
    if (n > 0) {
      window_energy +=
          std::norm(rx[n + ref.size() - 1]) - std::norm(rx[n - 1]);
    }
    if (window_energy > 0.0) {
      Cplx c{0.0, 0.0};
      for (std::size_t k = 0; k < ref.size(); ++k) {
        c += rx[n + k] * std::conj(ref[k]);
      }
      const double ncorr = std::abs(c) / std::sqrt(window_energy * ref_energy);
      if (ncorr > best) {
        best = ncorr;
        best_pos = n;
        best_corr = c;
      }
    }
  }
  if (best < config.detection_threshold) return result;
  result.detected = true;
  result.start_index = best_pos;
  const IqBuffer locked = dsp::RotatePhase(rx, -std::arg(best_corr));
  const std::size_t phr_start = best_pos + 4 * kSamplesPerSymbol;
  BitVector phr_chips;
  DemodulateChipsInto(locked, phr_start, 2 * kChipsPerSymbol, phr_chips);
  if (phr_chips.size() < 2 * kChipsPerSymbol) return result;
  std::vector<std::uint8_t> symbols;
  double chip_distance_sum = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    const DespreadResult d = DespreadChips(
        std::span<const Bit>(phr_chips).subspan(s * kChipsPerSymbol, kChipsPerSymbol));
    symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  Bytes phr;
  SymbolsToBytesInto(symbols, phr);
  const std::size_t psdu_len = phr[0] & 0x7Fu;
  if (psdu_len < 2 || psdu_len > kMaxPsduBytes) return result;
  result.psdu_len = psdu_len;
  const std::size_t psdu_symbols = psdu_len * 2;
  const std::size_t psdu_start = phr_start + 2 * kSamplesPerSymbol;
  BitVector chips;
  DemodulateChipsInto(locked, psdu_start, psdu_symbols * kChipsPerSymbol,
                      chips);
  if (chips.size() < psdu_symbols * kChipsPerSymbol) return result;
  std::vector<std::uint8_t> payload_symbols;
  for (std::size_t s = 0; s < psdu_symbols; ++s) {
    const DespreadResult d = DespreadChips(
        std::span<const Bit>(chips).subspan(s * kChipsPerSymbol, kChipsPerSymbol));
    payload_symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  SymbolsToBytesInto(payload_symbols, result.psdu);
  result.data_symbols = symbols;
  result.data_symbols.insert(result.data_symbols.end(), payload_symbols.begin(),
                             payload_symbols.end());
  result.mean_chip_distance =
      chip_distance_sum / static_cast<double>(2 + psdu_symbols);
  const std::size_t frame_end =
      std::min(rx.size(), psdu_start + psdu_symbols * kSamplesPerSymbol);
  result.rssi_dbm = dsp::PowerDbm(
      std::span<const Cplx>(rx).subspan(best_pos, frame_end - best_pos));
  if (result.psdu.size() >= 2) {
    const std::uint16_t fcs = static_cast<std::uint16_t>(
        result.psdu[result.psdu.size() - 2] | (result.psdu[result.psdu.size() - 1] << 8));
    const std::uint16_t computed = Crc16Ccitt(
        std::span<const std::uint8_t>(result.psdu.data(), result.psdu.size() - 2));
    result.fcs_ok = (fcs == computed);
  }
  return result;
}

// Doubles are compared by bit pattern: stricter than ==, and NaN-safe.
void ExpectSameResult(const RxResult& got, const RxResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.detected, want.detected) << what;
  EXPECT_EQ(got.fcs_ok, want.fcs_ok) << what;
  EXPECT_EQ(got.psdu_len, want.psdu_len) << what;
  EXPECT_EQ(got.psdu, want.psdu) << what;
  EXPECT_EQ(got.data_symbols, want.data_symbols) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_chip_distance),
            std::bit_cast<std::uint64_t>(want.mean_chip_distance)) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rssi_dbm),
            std::bit_cast<std::uint64_t>(want.rssi_dbm)) << what;
  EXPECT_EQ(got.start_index, want.start_index) << what;
}

RxResult CheckAgainstOracle(const IqBuffer& rx, const std::string& what,
                            const RxConfig& config = {}) {
  const RxResult want = OracleReceiveFrame(rx, config);
  ExpectSameResult(ReceiveFrame(rx, config), want, what);
  return want;
}

IqBuffer Padded(const IqBuffer& wave, std::size_t head, std::size_t tail) {
  IqBuffer out(head, Cplx{0.0, 0.0});
  out.insert(out.end(), wave.begin(), wave.end());
  out.insert(out.end(), tail, Cplx{0.0, 0.0});
  return out;
}

IqBuffer NoisyCapture(const IqBuffer& wave, double rx_power_dbm, Rng& rng,
                      std::size_t head = 200, std::size_t tail = 200) {
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  return channel::ApplyLink(Padded(wave, head, tail), rx_power_dbm, fe, rng);
}

TEST(ShrSearch, MatchesBruteForceAcrossSeededSweep) {
  // Noise floor at 8 MS/s with a 5 dB noise figure is ~ -99.9 dBm.
  constexpr double kNoiseFloorDbm = -99.9;
  constexpr int kCases = 44;
  int detected = 0;
  int missed = 0;
  int decoded = 0;
  for (int i = 0; i < kCases; ++i) {
    Rng rng(Rng::ForTrial(1404, static_cast<std::uint64_t>(i), 0));
    const double snr_db = -10.0 + 20.0 * i / (kCases - 1);
    const std::size_t len = 1 + rng.NextBelow(125);
    const TxFrame frame = BuildFrame(RandomBytes(rng, len));
    IqBuffer wave = frame.waveform;
    if (i % 2 == 1) {
      // Tag translation: 180° flips of 8-symbol windows in the PSDU.
      for (std::size_t start = frame.shr_samples + 2 * kSamplesPerSymbol;
           start + 8 * kSamplesPerSymbol <= wave.size();
           start += 16 * kSamplesPerSymbol) {
        if (rng.NextBelow(2) == 0) continue;
        for (std::size_t k = 0; k < 8 * kSamplesPerSymbol; ++k) {
          wave[start + k] = -wave[start + k];
        }
      }
    }
    if (i % 3 == 1) {
      double phase = rng.NextDouble() * kTwoPi;
      for (auto& x : wave) {
        phase += 2e-3 * rng.NextGaussian();
        x *= Cplx{std::cos(phase), std::sin(phase)};
      }
    }
    if (i % 3 == 2) {
      const double cfo_hz = (rng.NextDouble() - 0.5) * 40e3;
      wave = dsp::MixFrequency(wave, cfo_hz, kSampleRateHz, rng.NextDouble());
    }
    const IqBuffer rx = NoisyCapture(wave, kNoiseFloorDbm + snr_db, rng,
                                     rng.NextBelow(400), rng.NextBelow(400));
    RxConfig config;
    config.detection_threshold = (i % 4 == 3) ? 0.3 : 0.5;
    const RxResult want =
        CheckAgainstOracle(rx, "case " + std::to_string(i), config);
    (want.detected ? detected : missed) += 1;
    decoded += want.fcs_ok ? 1 : 0;
  }
  // The sweep must straddle the detection threshold.
  EXPECT_GT(detected, 5);
  EXPECT_GT(missed, 5);
  EXPECT_GT(decoded, 5);
}

TEST(ShrSearch, EarlierOfTwoIdenticalCopiesWinsTheTie) {
  // Samples on a 2^-10 grid keep every |x|^2 and every window-energy
  // update exact, so both copies see bit-identical window energies and
  // chains: an exact tie, which strict `>` resolves to the first copy.
  Rng rng(31);
  IqBuffer wave = BuildFrame(RandomBytes(rng, 20)).waveform;
  for (auto& x : wave) {
    x = {std::round(x.real() * 1024.0) / 1024.0, std::round(x.imag() * 1024.0) / 1024.0};
  }
  IqBuffer rx = Padded(wave, 300, 600);
  rx.insert(rx.end(), wave.begin(), wave.end());
  rx.insert(rx.end(), 300, Cplx{0.0, 0.0});
  const std::size_t shr_tail = 6 * kSamplesPerSymbol;
  const std::size_t first = 300 + shr_tail;
  const std::size_t second = 300 + wave.size() + 600 + shr_tail;
  double window_energy = 0.0;
  for (std::size_t k = 0; k < OracleReference().size(); ++k) {
    window_energy += std::norm(rx[first + k]);
  }
  ASSERT_EQ(OracleNcorr(rx, first, window_energy),
            OracleNcorr(rx, second, window_energy));
  const RxResult want = CheckAgainstOracle(rx, "two copies");
  EXPECT_TRUE(want.fcs_ok);
  EXPECT_EQ(want.start_index, first);
}

TEST(ShrSearch, FrameFlushAgainstBufferEnd) {
  Rng rng(32);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 30));
  const IqBuffer rx = NoisyCapture(frame.waveform, -90.0, rng, 150, 0);
  EXPECT_TRUE(CheckAgainstOracle(rx, "frame ends at buffer end").fcs_ok);
  // Capture cut right after the SHR tail: the peak is the last position.
  const std::size_t shr_end = 6 * kSamplesPerSymbol + OracleReference().size();
  const IqBuffer cut(rx.begin(), rx.begin() + 150 + shr_end);
  const RxResult want = CheckAgainstOracle(cut, "SHR at last position");
  EXPECT_TRUE(want.detected);
  EXPECT_EQ(want.start_index, cut.size() - OracleReference().size());
}

TEST(ShrSearch, ZeroEnergyPaddedWindows) {
  Rng rng(33);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 12));
  EXPECT_TRUE(CheckAgainstOracle(Padded(frame.waveform, 3000, 3000), "zero pads").fcs_ok);
  EXPECT_TRUE(CheckAgainstOracle(Padded(frame.waveform, 0, 2500), "zero tail").fcs_ok);
}

TEST(ShrSearch, MinimumLengthCapture) {
  Rng rng(34);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 8));
  const IqBuffer rx = NoisyCapture(frame.waveform, -92.0, rng);
  const std::size_t min_len = OracleReference().size() + kSamplesPerSymbol;
  const std::size_t from = 200 + 6 * kSamplesPerSymbol - 64;
  const IqBuffer exact(rx.begin() + from, rx.begin() + from + min_len);
  EXPECT_TRUE(CheckAgainstOracle(exact, "ref + one symbol").detected);
  const IqBuffer short_by_one(exact.begin(), exact.end() - 1);
  EXPECT_FALSE(CheckAgainstOracle(short_by_one, "one sample short").detected);
}

TEST(ShrSearch, AllZeroBuffer) {
  EXPECT_FALSE(CheckAgainstOracle(IqBuffer(5000, Cplx{0.0, 0.0}), "zeros").detected);
  RxConfig config;
  config.detection_threshold = 0.0;
  // A zero threshold accepts the empty peak (position 0, zero phase).
  CheckAgainstOracle(IqBuffer(3000, Cplx{0.0, 0.0}), "zeros, threshold 0", config);
}

TEST(ShrSearch, NanSampleInThePad) {
  Rng rng(35);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 40));
  const IqBuffer clean = NoisyCapture(frame.waveform, -92.0, rng, 2500, 2500);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t at : {std::size_t{40}, std::size_t{2200}, clean.size() - 30}) {
    IqBuffer rx = clean;
    rx[at] = Cplx{nan, 0.0};
    CheckAgainstOracle(rx, "NaN at " + std::to_string(at));
  }
}

TEST(ShrSearch, ReferenceMatchesTheOracle) {
  const IqBuffer& ref = ShrReference();
  ASSERT_EQ(ref.size(), kShrRefSamples);
  ASSERT_EQ(OracleReference().size(), kShrRefSamples);
  EXPECT_EQ(std::memcmp(ref.data(), OracleReference().data(),
                        ref.size() * sizeof(Cplx)),
            0);
}

TEST(ShrSearch, FilterAllowanceKeepsThousandfoldMargin) {
  // The allowance must bound |FFT estimate - exact chain| at every
  // position, and stay at least 10^3 times the error actually seen, so
  // the bound never rides on luck. Captures span SNR, payload length,
  // absolute scale and a partial last block.
  const IqBuffer& ref = ShrReference();
  double worst_ratio = 0.0;
  std::size_t checked = 0;
  ShrBlock block;
  for (int i = 0; i < 6; ++i) {
    Rng rng(Rng::ForTrial(77, static_cast<std::uint64_t>(i), 0));
    const TxFrame frame = BuildFrame(RandomBytes(rng, 1 + rng.NextBelow(100)));
    IqBuffer rx = NoisyCapture(frame.waveform, -105.0 + 5.0 * i, rng);
    const double scale = (i == 4) ? 1e100 : (i == 5) ? 1e-100 : 1.0;
    for (auto& x : rx) x *= scale;
    const std::size_t positions = rx.size() - ref.size() + 1;
    for (std::size_t first = 0; first < positions; first += kShrBlockPositions) {
      const double allowance = EstimateShrBlock(rx, first, block);
      ASSERT_TRUE(std::isfinite(allowance));
      const std::size_t count = std::min(kShrBlockPositions, positions - first);
      for (std::size_t j = 0; j < count; ++j) {
        Cplx c{0.0, 0.0};
        for (std::size_t k = 0; k < ref.size(); ++k) {
          c += rx[first + j + k] * std::conj(ref[k]);
        }
        const Cplx estimate{block.re[j], block.im[j]};
        worst_ratio = std::max(worst_ratio, std::abs(estimate - c) / allowance);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, std::size_t{20000});
  EXPECT_LT(worst_ratio, 1e-3) << "error / allowance";
}

TEST(Frame, BuildFrameIntoAReusedFrameMatchesAFreshBuild) {
  Rng rng(12);
  TxFrame reused;
  for (const std::size_t len : {80, 2, 125, 0, 40}) {
    const Bytes payload = RandomBytes(rng, len);
    BuildFrameInto(payload, reused);
    const TxFrame fresh = BuildFrame(payload);
    EXPECT_EQ(reused.waveform, fresh.waveform);
    EXPECT_EQ(reused.data_symbols, fresh.data_symbols);
    EXPECT_EQ(reused.psdu, fresh.psdu);
    EXPECT_EQ(reused.shr_samples, fresh.shr_samples);
  }
}

TEST(Frame, ReceiveFrameIntoAReusedResultMatchesTheAllocatingForm) {
  // One result is reused across an SNR sweep, so a field the into-form
  // failed to reset (or a vector it failed to clear) shows up against
  // the fresh result of the allocating form.
  constexpr double kNoiseFloorDbm = -99.9;
  RxResult reused;
  int detected = 0;
  int missed = 0;
  int decoded = 0;
  for (int i = 0; i < 30; ++i) {
    Rng rng(Rng::ForTrial(2626, static_cast<std::uint64_t>(i), 0));
    const double snr_db = -12.0 + 24.0 * ((i * 7) % 30) / 29.0;
    const TxFrame frame = BuildFrame(RandomBytes(rng, 1 + rng.NextBelow(100)));
    const IqBuffer rx =
        NoisyCapture(frame.waveform, kNoiseFloorDbm + snr_db, rng);
    RxConfig config;
    config.detection_threshold = (i % 5 == 4) ? 0.3 : 0.5;
    const RxResult fresh = ReceiveFrame(rx, config);
    ReceiveFrame(rx, config, reused);
    ExpectSameResult(reused, fresh, "case " + std::to_string(i));
    (fresh.detected ? detected : missed) += 1;
    decoded += fresh.fcs_ok ? 1 : 0;
  }
  EXPECT_GT(detected, 3);
  EXPECT_GT(missed, 3);
  EXPECT_GT(decoded, 3);
}

}  // namespace
}  // namespace freerider::phy802154
