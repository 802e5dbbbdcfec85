// Property-based tests: parameterized sweeps asserting the algebraic
// invariants the system's correctness rests on — linearity of the
// scrambler and convolutional code (the foundation of XOR decoding),
// bijectivity of every (de)mapping stage, capacity/rate identities of
// the translator, and monotonicity of the channel and budget models.
#include <gtest/gtest.h>

#include <tuple>

#include "channel/link_budget.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "dsp/fft.h"
#include "dsp/signal_ops.h"
#include "fft_copy.h"
#include "phy80211/constellation.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/scrambler.h"
#include "phy802154/chips.h"
#include "phyble/whitening.h"

namespace freerider {
namespace {

// ------------------------------------------------------ linearity sweep

class LinearitySeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearitySeed, ScramblerIsAffineInItsInput) {
  // scramble(a) ^ scramble(b) = a ^ b for equal seeds: the whitening
  // cancels, which is precisely why two receivers' descrambled streams
  // XOR to the tag bits.
  Rng rng(GetParam());
  const BitVector a = RandomBits(rng, 256);
  const BitVector b = RandomBits(rng, 256);
  phy80211::Scrambler s1(0x4A), s2(0x4A);
  EXPECT_EQ(XorBits(s1.Process(a), s2.Process(b)), XorBits(a, b));
}

TEST_P(LinearitySeed, ConvolutionalCodeIsLinear) {
  Rng rng(GetParam() * 3 + 1);
  const BitVector a = RandomBits(rng, 200);
  const BitVector b = RandomBits(rng, 200);
  EXPECT_EQ(phy80211::ConvolutionalEncode(XorBits(a, b)),
            XorBits(phy80211::ConvolutionalEncode(a),
                    phy80211::ConvolutionalEncode(b)));
}

TEST_P(LinearitySeed, BleWhiteningIsAffine) {
  Rng rng(GetParam() * 5 + 2);
  const BitVector a = RandomBits(rng, 128);
  const BitVector b = RandomBits(rng, 128);
  EXPECT_EQ(XorBits(phyble::Whiten(a, 21), phyble::Whiten(b, 21)),
            XorBits(a, b));
}

TEST_P(LinearitySeed, WindowFlipPropagatesThroughCodePipeline) {
  // Flipping a whole-symbol-aligned window of data bits flips the
  // corresponding scrambled+coded+interleaved window — the §3.2.1
  // argument, checked end-to-end through the TX bit pipeline.
  Rng rng(GetParam() * 7 + 3);
  const auto& params = phy80211::ParamsFor(phy80211::Rate::k6Mbps);
  const std::size_t symbols = 8;
  BitVector data = RandomBits(rng, symbols * params.data_bits_per_symbol);
  BitVector flipped = data;
  // Flip symbols 2..5.
  for (std::size_t i = 2 * params.data_bits_per_symbol;
       i < 6 * params.data_bits_per_symbol; ++i) {
    flipped[i] ^= 1;
  }
  auto pipeline = [&](const BitVector& bits) {
    phy80211::Scrambler s(0x33);
    const BitVector scrambled = s.Process(bits);
    const BitVector coded = phy80211::Puncture(
        phy80211::ConvolutionalEncode(scrambled), params.coding);
    return phy80211::InterleaveStream(coded, params);
  };
  const BitVector out_a = pipeline(data);
  const BitVector out_b = pipeline(flipped);
  // Differences must be confined to coded symbols 2..6 (one symbol of
  // trellis memory bleeds forward).
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    const std::size_t sym = i / params.coded_bits_per_symbol;
    if (sym < 2 || sym > 6) {
      EXPECT_EQ(out_a[i], out_b[i]) << "coded bit " << i;
    }
  }
  // And inside the window the two streams differ heavily.
  std::size_t diff = 0;
  for (std::size_t i = 2 * params.coded_bits_per_symbol;
       i < 6 * params.coded_bits_per_symbol; ++i) {
    diff += out_a[i] != out_b[i];
  }
  EXPECT_GT(diff, params.coded_bits_per_symbol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearitySeed,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --------------------------------------------------- round-trip sweeps

class RoundTripSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripSeed, ViterbiInvertsEncoderForAllRates) {
  Rng rng(GetParam());
  for (const auto& params : phy80211::kRateTable) {
    BitVector data = RandomBits(rng, 120);
    for (int i = 0; i < 6; ++i) data.push_back(0);
    const BitVector mother = phy80211::ConvolutionalEncode(data);
    const BitVector punctured = phy80211::Puncture(mother, params.coding);
    BitVector restored;
    phy80211::DepunctureInto(punctured, params.coding, mother.size(),
                             restored);
    EXPECT_EQ(phy80211::ViterbiDecode(restored), data)
        << "rate " << params.mbps;
  }
}

TEST_P(RoundTripSeed, InterleaverBijectiveOnRandomStreams) {
  Rng rng(GetParam() + 1000);
  for (const auto& params : phy80211::kRateTable) {
    const std::size_t ncbps = params.coded_bits_per_symbol;
    const BitVector bits = RandomBits(rng, 3 * ncbps);
    const BitVector interleaved = phy80211::InterleaveStream(bits, params);
    BitVector restored;
    BitVector symbol;
    for (std::size_t off = 0; off < interleaved.size(); off += ncbps) {
      phy80211::DeinterleaveSymbolInto(
          std::span<const Bit>(interleaved).subspan(off, ncbps), params,
          symbol);
      restored.insert(restored.end(), symbol.begin(), symbol.end());
    }
    EXPECT_EQ(restored, bits);
  }
}

TEST_P(RoundTripSeed, ChipSpreadingInvertible) {
  Rng rng(GetParam() + 2000);
  std::vector<std::uint8_t> symbols(64);
  for (auto& s : symbols) s = static_cast<std::uint8_t>(rng.NextBelow(16));
  const BitVector chips = phy802154::SpreadSymbols(symbols);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const auto r = phy802154::DespreadChips(
        std::span<const Bit>(chips).subspan(i * 32, 32));
    EXPECT_EQ(r.symbol, symbols[i]);
    EXPECT_EQ(r.distance, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSeed,
                         ::testing::Values(5, 15, 25, 35, 45));

// ----------------------------------------------- translator invariants

class TranslatorProperty
    : public ::testing::TestWithParam<std::tuple<core::RadioType, std::size_t>> {
};

TEST_P(TranslatorProperty, ConstantEnvelopeUpToConversion) {
  // A phase/FSK translator must not change |sample| beyond the constant
  // conversion amplitude — the tag cannot amplify.
  const auto [radio, redundancy] = GetParam();
  Rng rng(9);
  IqBuffer excitation(4000);
  for (auto& x : excitation) x = rng.NextComplexGaussian();
  core::TranslateConfig cfg;
  cfg.radio = radio;
  cfg.redundancy = redundancy;
  const BitVector bits = RandomBits(rng, 64);
  const IqBuffer out = core::Translate(excitation, bits, cfg);
  ASSERT_EQ(out.size(), excitation.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(std::abs(out[i]),
                std::abs(excitation[i]) * tag::kSidebandAmplitude, 1e-9);
  }
}

TEST_P(TranslatorProperty, CapacityMatchesRateTimesAirtime) {
  const auto [radio, redundancy] = GetParam();
  core::TranslateConfig cfg;
  cfg.radio = radio;
  cfg.redundancy = redundancy;
  const std::size_t samples = 50000;
  const std::size_t cap = core::TagBitCapacity(samples, cfg);
  const double sample_rate = static_cast<double>(
      core::SamplesPerCodeword(radio));  // samples per codeword
  // capacity * N * samples_per_codeword <= usable samples < +1 window
  const std::size_t start = core::ModulationStartSamples(radio);
  const std::size_t usable = samples - start;
  EXPECT_LE(cap * redundancy * static_cast<std::size_t>(sample_rate), usable);
  EXPECT_GT((cap + 1) * redundancy * static_cast<std::size_t>(sample_rate),
            usable);
}

TEST_P(TranslatorProperty, ZeroBitsMeansPurePassthrough) {
  const auto [radio, redundancy] = GetParam();
  Rng rng(10);
  IqBuffer excitation(6000);
  for (auto& x : excitation) x = rng.NextComplexGaussian();
  core::TranslateConfig cfg;
  cfg.radio = radio;
  cfg.redundancy = redundancy;
  const BitVector zeros(128, 0);
  const IqBuffer out = core::Translate(excitation, zeros, cfg);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(std::abs(out[i] - excitation[i] * tag::kSidebandAmplitude),
                0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TranslatorProperty,
    ::testing::Combine(::testing::Values(core::RadioType::kWifi,
                                         core::RadioType::kZigbee,
                                         core::RadioType::kBluetooth),
                       ::testing::Values(2u, 4u, 8u, 16u)));

// ----------------------------------------------- decoder threshold sweep

class DecoderThreshold : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecoderThreshold, PerfectStreamsDecodeAtAnyRedundancy) {
  const std::size_t n = GetParam();
  Rng rng(n);
  const std::size_t symbols = 2 + n * 10;  // skip + 10 windows
  std::vector<std::uint8_t> ref(symbols);
  for (auto& s : ref) s = static_cast<std::uint8_t>(rng.NextBelow(16));
  std::vector<std::uint8_t> rx = ref;
  // Encode alternating tag bits by translating windows.
  BitVector expected;
  for (std::size_t w = 0; w < 10; ++w) {
    const Bit bit = static_cast<Bit>(w % 2);
    expected.push_back(bit);
    if (bit) {
      for (std::size_t u = 0; u < n; ++u) {
        const std::size_t idx = 2 + w * n + u;
        rx[idx] = phy802154::TranslatedSymbol(ref[idx]);
      }
    }
  }
  const core::TagDecodeResult decoded = core::DecodeZigbee(ref, rx, n);
  ASSERT_EQ(decoded.bits.size(), expected.size());
  EXPECT_EQ(decoded.bits, expected);
  // Diff fractions are extreme: ~0 for zeros, ~1 for ones.
  for (std::size_t w = 0; w < decoded.diff_fractions.size(); ++w) {
    if (expected[w]) {
      EXPECT_GT(decoded.diff_fractions[w], 0.9);
    } else {
      EXPECT_LT(decoded.diff_fractions[w], 0.1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, DecoderThreshold, ::testing::Values(1, 2, 4, 8));

// ------------------------------------------------- budget monotonicity

class BudgetDistance : public ::testing::TestWithParam<double> {};

TEST_P(BudgetDistance, MoreWallsNeverHelp) {
  channel::BackscatterBudget budget;
  budget.path = channel::NlosModel();
  const double d = GetParam();
  for (int walls = 0; walls < 4; ++walls) {
    EXPECT_GT(budget.ReceivedDbm(1.0, d, 0, walls),
              budget.ReceivedDbm(1.0, d, 0, walls + 1));
  }
}

TEST_P(BudgetDistance, SymmetricInSegments) {
  // Reciprocity: swapping the two path segments leaves the budget
  // unchanged (same product of losses).
  channel::BackscatterBudget budget;
  budget.path = channel::LosModel();
  const double d = GetParam();
  EXPECT_NEAR(budget.ReceivedDbm(d, 3.0), budget.ReceivedDbm(3.0, d), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Distances, BudgetDistance,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0, 20.0, 40.0));

// ------------------------------------------ constellation rotations 90°

class Rotation90 : public ::testing::TestWithParam<phy80211::Modulation> {};

TEST_P(Rotation90, QuarterTurnMapsToValidPoints) {
  // Eq. 5's quaternary scheme needs 90° closure; true for QPSK and the
  // square QAMs but NOT for BPSK.
  Rng rng(12);
  const auto mod = GetParam();
  const std::size_t bps = phy80211::BitsPerSymbol(mod);
  const BitVector bits = RandomBits(rng, bps * 50);
  IqBuffer symbols = phy80211::MapBits(bits, mod);
  const Cplx j{0.0, 1.0};
  for (auto& s : symbols) s *= j;
  for (const Cplx& s : symbols) {
    const bool valid = phy80211::IsValidConstellationPoint(s, mod, 1e-9);
    if (mod == phy80211::Modulation::kBpsk) {
      EXPECT_FALSE(valid);
    } else {
      EXPECT_TRUE(valid);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMods, Rotation90,
                         ::testing::Values(phy80211::Modulation::kBpsk,
                                           phy80211::Modulation::kQpsk,
                                           phy80211::Modulation::kQam16,
                                           phy80211::Modulation::kQam64));

// --------------------------------------------- FFT shift theorem check

class FftShift : public ::testing::TestWithParam<int> {};

TEST_P(FftShift, FrequencyMixMovesBins) {
  // Mixing by k bins cyclically shifts the spectrum by k — the
  // frequency-domain picture of the tag's channel shift.
  const int k = GetParam();
  Rng rng(13);
  IqBuffer x(64);
  for (auto& v : x) v = rng.NextComplexGaussian();
  const IqBuffer shifted =
      dsp::MixFrequency(x, static_cast<double>(k) * 1.0 / 64.0, 1.0);
  IqBuffer fx = dsp::FftCopy(x);
  IqBuffer fs = dsp::FftCopy(shifted);
  for (int bin = 0; bin < 64; ++bin) {
    const int src = ((bin - k) % 64 + 64) % 64;
    EXPECT_NEAR(std::abs(fs[static_cast<std::size_t>(bin)] -
                         fx[static_cast<std::size_t>(src)]),
                0.0, 1e-6)
        << "bin " << bin;
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, FftShift, ::testing::Values(1, 5, 17, 32, 63));

}  // namespace
}  // namespace freerider
