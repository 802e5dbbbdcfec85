#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/kernels.h"
#include "dsp/signal_ops.h"
#include "dsp/spectrum.h"
#include "fft_copy.h"

namespace freerider::dsp {
namespace {

IqBuffer RandomSignal(Rng& rng, std::size_t n) {
  IqBuffer out(n);
  for (auto& x : out) x = rng.NextComplexGaussian();
  return out;
}

// ----------------------------------------------------------------- fft

TEST(Fft, ImpulseGivesFlatSpectrum) {
  IqBuffer x(64, Cplx{0.0, 0.0});
  x[0] = 1.0;
  Fft(x);
  for (const Cplx& bin : x) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  IqBuffer x(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = kTwoPi * k * static_cast<double>(i) / n;
    x[i] = {std::cos(phase), std::sin(phase)};
  }
  Fft(x);
  for (std::size_t bin = 0; bin < n; ++bin) {
    const double expected = (bin == k) ? 64.0 : 0.0;
    EXPECT_NEAR(std::abs(x[bin]), expected, 1e-9) << "bin " << bin;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  Rng rng(GetParam());
  const IqBuffer original = RandomSignal(rng, GetParam());
  IqBuffer x = original;
  Fft(x);
  Ifft(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i] - original[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, ParsevalHolds) {
  Rng rng(21);
  const IqBuffer x = RandomSignal(rng, 128);
  IqBuffer spectrum = x;
  Fft(spectrum);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const Cplx& v : x) time_energy += std::norm(v);
  for (const Cplx& v : spectrum) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * 128.0, time_energy * 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  IqBuffer x(60);
  EXPECT_THROW(Fft(x), std::invalid_argument);
}

TEST(Fft, Linearity) {
  Rng rng(22);
  const IqBuffer a = RandomSignal(rng, 64);
  const IqBuffer b = RandomSignal(rng, 64);
  IqBuffer sum(64);
  for (int i = 0; i < 64; ++i) sum[i] = a[i] + 2.0 * b[i];
  IqBuffer fa = FftCopy(a);
  IqBuffer fb = FftCopy(b);
  IqBuffer fsum = FftCopy(sum);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-9);
  }
}

// Bit-identity oracle: the radix-2 transform written with std::complex
// temporaries, the form dsp::Fft had before its butterfly moved to
// explicit real arithmetic. Same twiddle formula, same bit-reversal,
// same butterfly order, so every finite output must match byte for
// byte. The one documented divergence is non-finite input: a
// std::complex product whose real and imaginary parts both come out NaN
// goes through libgcc's __muldc3 (C Annex G), which can recover an
// infinity, while the real-arithmetic butterfly leaves the NaN. No
// simulated signal is non-finite, so only finite inputs are pinned.
void OracleFft(IqBuffer& data) {
  const std::size_t n = data.size();
  if (n == 1) return;
  std::vector<Cplx> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    tw[k] = {std::cos(angle), std::sin(angle)};
  }
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx w = tw[k * step];
        const Cplx u = data[i + k];
        const Cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }
}

void OracleIfft(IqBuffer& data) {
  for (auto& x : data) x = std::conj(x);
  OracleFft(data);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x = std::conj(x) * inv_n;
}

bool SameBytes(const IqBuffer& a, const IqBuffer& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cplx)) == 0;
}

TEST(Fft, BitIdenticalToComplexTemporaryOracle) {
  Rng rng(2026);
  for (std::size_t log2n = 0; log2n <= 15; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    std::vector<std::pair<const char*, IqBuffer>> inputs;
    inputs.emplace_back("gaussian", RandomSignal(rng, n));
    IqBuffer impulse(n, Cplx{0.0, 0.0});
    impulse[n / 3] = Cplx{0.75, -1.25};
    inputs.emplace_back("impulse", impulse);
    inputs.emplace_back("zero", IqBuffer(n, Cplx{0.0, 0.0}));
    for (const double scale : {1e150, 1e-150}) {
      IqBuffer scaled = RandomSignal(rng, n);
      for (auto& x : scaled) x *= scale;
      inputs.emplace_back(scale > 1.0 ? "1e+150" : "1e-150", scaled);
    }
    for (const auto& [name, input] : inputs) {
      IqBuffer fast = input;
      IqBuffer oracle = input;
      Fft(fast);
      OracleFft(oracle);
      EXPECT_TRUE(SameBytes(fast, oracle)) << "Fft n=" << n << " " << name;
      fast = input;
      oracle = input;
      Ifft(fast);
      OracleIfft(oracle);
      EXPECT_TRUE(SameBytes(fast, oracle)) << "Ifft n=" << n << " " << name;
    }
  }
}

// The inputs BitIdenticalToComplexTemporaryOracle draws for size n,
// drawn in the same order from the same stream.
std::vector<std::pair<const char*, IqBuffer>> OracleInputs(Rng& rng,
                                                           std::size_t n) {
  std::vector<std::pair<const char*, IqBuffer>> inputs;
  inputs.emplace_back("gaussian", RandomSignal(rng, n));
  IqBuffer impulse(n, Cplx{0.0, 0.0});
  impulse[n / 3] = Cplx{0.75, -1.25};
  inputs.emplace_back("impulse", impulse);
  inputs.emplace_back("zero", IqBuffer(n, Cplx{0.0, 0.0}));
  for (const double scale : {1e150, 1e-150}) {
    IqBuffer scaled = RandomSignal(rng, n);
    for (auto& x : scaled) x *= scale;
    inputs.emplace_back(scale > 1.0 ? "1e+150" : "1e-150", scaled);
  }
  return inputs;
}

using FftBuild = void (*)(const Cplx*, Cplx*, bool, double*, double*,
                          std::size_t);

// Fft or Ifft through one build, with either end interleaved (the
// build gathers the input or writes the output) or split by the test:
// input in bit-reversed order (conjugated for the inverse), output
// interleaved here (conjugated and scaled by 1/N for the inverse).
void TransformThroughBuild(FftBuild build, bool inverse, bool gather,
                           bool interleave, IqBuffer& data) {
  const std::size_t n = data.size();
  std::vector<double> re(n), im(n);
  if (!gather) {
    const std::span<const std::uint32_t> rev = BitReversal(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = data[rev[i]].real();
      im[i] = inverse ? -data[rev[i]].imag() : data[rev[i]].imag();
    }
  }
  build(gather ? data.data() : nullptr, interleave ? data.data() : nullptr,
        inverse, re.data(), im.data(), n);
  if (interleave) return;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = inverse ? Cplx{re[i] * inv_n, -im[i] * inv_n}
                      : Cplx{re[i], im[i]};
  }
}

TEST(Fft, BaselineAndAvx2BuildsMatchOracle) {
  const std::pair<const char*, FftBuild> builds[] = {
      {"baseline", FftBaseline}, {"avx2", FftAvx2}};
  for (const auto& [build_name, build] : builds) {
    if (build == FftAvx2 && !CpuHasAvx2()) {
      GTEST_SKIP() << "no AVX2 on this CPU; the baseline build passed";
    }
    Rng rng(2026);
    for (std::size_t log2n = 0; log2n <= 15; ++log2n) {
      const std::size_t n = std::size_t{1} << log2n;
      for (const auto& [name, input] : OracleInputs(rng, n)) {
        for (const bool inverse : {false, true}) {
          IqBuffer oracle = input;
          inverse ? OracleIfft(oracle) : OracleFft(oracle);
          for (const int ends : {0, 1, 2, 3}) {
            const bool gather = (ends & 1) != 0;
            const bool interleave = (ends & 2) != 0;
            IqBuffer fast = input;
            TransformThroughBuild(build, inverse, gather, interleave, fast);
            EXPECT_TRUE(SameBytes(fast, oracle))
                << build_name << (inverse ? " Ifft" : " Fft")
                << (gather ? " gathered" : " split")
                << (interleave ? " interleaved" : " split") << " n=" << n
                << " " << name;
          }
        }
      }
    }
  }
}

TEST(Fft, ThreadsWithMixedSizesMatchOracle) {
  // Plans and split scratch are per thread: four threads interleave the
  // OFDM and SHR sizes with odd powers, so a plan or scratch buffer
  // shared or resized under another thread would show as a mismatch.
  static constexpr std::size_t kSizes[] = {64,  2048, 8,     64, 512,
                                           2048, 2,   32768, 64};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng(Rng::ForTrial(2026, t, 0));
      for (int round = 0; round < 6; ++round) {
        for (std::size_t j = 0; j < std::size(kSizes); ++j) {
          const std::size_t n = kSizes[(j + t) % std::size(kSizes)];
          const IqBuffer input = RandomSignal(rng, n);
          IqBuffer fast = input;
          IqBuffer oracle = input;
          Fft(fast);
          OracleFft(oracle);
          if (!SameBytes(fast, oracle)) ++mismatches;
          fast = input;
          oracle = input;
          Ifft(fast);
          OracleIfft(oracle);
          if (!SameBytes(fast, oracle)) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ----------------------------------------------------------------- fir

TEST(Fir, LowPassRejectsHighTone) {
  const double fs = 20e6;
  const auto taps = LowPassTaps(0.1, 63);
  FirFilter lp(taps);
  IqBuffer low(2000), high(2000);
  for (std::size_t n = 0; n < low.size(); ++n) {
    const double t = static_cast<double>(n);
    low[n] = {std::cos(kTwoPi * 0.02 * t), std::sin(kTwoPi * 0.02 * t)};
    high[n] = {std::cos(kTwoPi * 0.35 * t), std::sin(kTwoPi * 0.35 * t)};
  }
  const double low_gain = MeanPower(lp.Filter(low)) / MeanPower(low);
  const double high_gain = MeanPower(lp.Filter(high)) / MeanPower(high);
  EXPECT_GT(low_gain, 0.9);
  EXPECT_LT(high_gain, 0.01);
  (void)fs;
}

TEST(Fir, UnitDcGain) {
  const auto taps = LowPassTaps(0.2, 41);
  double sum = 0.0;
  for (double t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Fir, GaussianTapsSymmetricAndNormalized) {
  const auto taps = GaussianTaps(0.5, 8, 3);
  double sum = 0.0;
  for (double t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (std::size_t i = 0; i < taps.size() / 2; ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-12);
  }
}

TEST(Fir, RejectsBadArgs) {
  EXPECT_THROW(LowPassTaps(0.6, 11), std::invalid_argument);
  EXPECT_THROW(FirFilter({}), std::invalid_argument);
}

// ---------------------------------------------------------- signal ops

TEST(SignalOps, MixFrequencyShiftsTone) {
  const double fs = 20e6;
  const std::size_t n = 2048;
  IqBuffer dc(n, Cplx{1.0, 0.0});
  const IqBuffer shifted = MixFrequency(dc, fs / 8.0, fs);
  // The result should be a complex exponential at fs/8: check a few
  // samples against the closed form.
  for (std::size_t i : {1u, 100u, 1000u}) {
    const double phase = kTwoPi * (fs / 8.0) * static_cast<double>(i) / fs;
    EXPECT_NEAR(shifted[i].real(), std::cos(phase), 1e-6);
    EXPECT_NEAR(shifted[i].imag(), std::sin(phase), 1e-6);
  }
}

TEST(SignalOps, MixPreservesPower) {
  Rng rng(30);
  IqBuffer x(4096);
  for (auto& v : x) v = rng.NextComplexGaussian();
  const IqBuffer y = MixFrequency(x, 3.7e6, 20e6);
  EXPECT_NEAR(MeanPower(y), MeanPower(x), MeanPower(x) * 1e-6);
}

TEST(SignalOps, SquareWaveMixProducesBothSidebands) {
  // A square-wave mixer applied to DC produces tones at ±f (and odd
  // harmonics) — the double-sideband behaviour of paper Fig. 8.
  const double fs = 64.0;
  const double f = 8.0;
  IqBuffer dc(64, Cplx{1.0, 0.0});
  IqBuffer mixed = SquareWaveMix(dc, f, fs);
  Fft(mixed);
  const double upper = std::abs(mixed[8]);   // +8 cycles
  const double lower = std::abs(mixed[64 - 8]);
  EXPECT_GT(upper, 30.0);  // ~ 64 * 2/pi ≈ 40.7
  EXPECT_GT(lower, 30.0);
  EXPECT_NEAR(upper, lower, 1.0);
  // Fundamental carries (2/pi)^2 of power per sideband: amplitude 2/pi.
  EXPECT_NEAR(upper / 64.0, 2.0 / kPi, 0.02);
}

TEST(SignalOps, SquareWaveConversionLossNear3p9Db) {
  // Offset the initial phase so samples never land exactly on the
  // zero crossings (which would skew the duty cycle).
  const double fs = 256.0;
  IqBuffer dc(256, Cplx{1.0, 0.0});
  IqBuffer mixed = SquareWaveMix(dc, 32.0, fs, kPi / 8.0);
  Fft(mixed);
  const double sideband_power = std::norm(mixed[32]) / (256.0 * 256.0);
  // Continuous-time fundamental is (2/pi)^2 = -3.92 dB per sideband; at
  // 8 samples/cycle the sampled fundamental is slightly stronger
  // (-3.70 dB). Accept the neighbourhood.
  EXPECT_NEAR(LinearToDb(sideband_power), -3.8, 0.35);
}

TEST(SignalOps, RotatePhase) {
  IqBuffer x(4, Cplx{1.0, 0.0});
  const IqBuffer y = RotatePhase(x, kPi);
  for (const Cplx& v : y) {
    EXPECT_NEAR(v.real(), -1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(SignalOps, PowerDbm) {
  IqBuffer x(100, Cplx{1.0, 0.0});  // |x|^2 = 1 W -> 30 dBm
  EXPECT_NEAR(PowerDbm(x), 30.0, 1e-9);
  const IqBuffer y = ScaleAmplitude(x, std::sqrt(1e-6));  // 1 uW -> -30 dBm
  EXPECT_NEAR(PowerDbm(y), -30.0, 1e-6);
}

TEST(SignalOps, CorrelatePeaksAtLag) {
  Rng rng(31);
  IqBuffer pattern(32);
  for (auto& v : pattern) v = rng.NextComplexGaussian();
  IqBuffer signal(200, Cplx{0.0, 0.0});
  const std::size_t offset = 77;
  for (std::size_t i = 0; i < pattern.size(); ++i) signal[offset + i] = pattern[i];
  const IqBuffer corr = Correlate(signal, pattern);
  EXPECT_EQ(PeakIndex(corr), offset);
}

TEST(SignalOps, AddSignalsSuperposes) {
  IqBuffer a(3, Cplx{1.0, 0.0});
  IqBuffer b(5, Cplx{0.0, 1.0});
  const IqBuffer sum = AddSignals(a, b);
  ASSERT_EQ(sum.size(), 5u);
  EXPECT_NEAR(sum[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(sum[0].imag(), 1.0, 1e-12);
  EXPECT_NEAR(sum[4].real(), 0.0, 1e-12);
  EXPECT_NEAR(sum[4].imag(), 1.0, 1e-12);
}

TEST(SignalOps, DelaySamples) {
  IqBuffer x = {Cplx{1.0, 0.0}, Cplx{2.0, 0.0}};
  const IqBuffer y = DelaySamples(x, 3);
  ASSERT_EQ(y.size(), 5u);
  EXPECT_NEAR(std::abs(y[0]), 0.0, 1e-12);
  EXPECT_NEAR(y[3].real(), 1.0, 1e-12);
  EXPECT_NEAR(y[4].real(), 2.0, 1e-12);
}

// -------------------------------------------------------------- spectrum

TEST(Spectrum, TonePeaksAtItsFrequency) {
  const double fs = 8e6;
  IqBuffer tone(8192);
  for (std::size_t n = 0; n < tone.size(); ++n) {
    tone[n] = std::polar(1.0, kTwoPi * 1e6 * static_cast<double>(n) / fs);
  }
  const Spectrum s = EstimateSpectrum(tone, fs);
  // The 1 MHz bin dominates everything else by tens of dB.
  const double peak = s.PowerAtDb(1e6);
  EXPECT_GT(peak, s.PowerAtDb(-1e6) + 30.0);
  EXPECT_GT(peak, s.PowerAtDb(2e6) + 30.0);
}

TEST(Spectrum, SquareWaveImagesVisible) {
  // The Fig. 8 double-sideband: mixing DC with a square wave puts equal
  // power at ±f and odd harmonics ~9.5 dB down.
  const double fs = 8e6;
  IqBuffer dc(8192, Cplx{1.0, 0.0});
  const IqBuffer mixed = SquareWaveMix(dc, 1e6, fs, 0.3);
  const Spectrum s = EstimateSpectrum(mixed, fs);
  EXPECT_NEAR(s.PowerAtDb(1e6), s.PowerAtDb(-1e6), 1.0);
  EXPECT_NEAR(s.PowerAtDb(1e6) - s.PowerAtDb(3e6), 9.5, 2.0);
}

TEST(Spectrum, FrequencyMapping) {
  Rng rng(40);
  IqBuffer x(1024);
  for (auto& v : x) v = rng.NextComplexGaussian();
  const Spectrum s = EstimateSpectrum(x, 1e6);
  EXPECT_DOUBLE_EQ(s.FrequencyOf(0), 0.0);
  EXPECT_LT(s.FrequencyOf(s.psd_db.size() / 2), 0.0);  // wraps negative
  EXPECT_NEAR(s.bin_hz, 1e6 / 256.0, 1e-9);
}

TEST(Spectrum, RejectsBadInput) {
  IqBuffer tiny(10, Cplx{1.0, 0.0});
  EXPECT_THROW(EstimateSpectrum(tiny, 1e6), std::invalid_argument);
  SpectrumConfig cfg;
  cfg.fft_size = 100;  // not a power of two
  IqBuffer ok(256, Cplx{1.0, 0.0});
  EXPECT_THROW(EstimateSpectrum(ok, 1e6, cfg), std::invalid_argument);
}

TEST(Spectrum, RenderContainsBars) {
  IqBuffer tone(2048);
  for (std::size_t n = 0; n < tone.size(); ++n) {
    tone[n] = std::polar(1.0, kTwoPi * 0.1 * static_cast<double>(n));
  }
  const std::string art = RenderSpectrum(EstimateSpectrum(tone, 1e6), 8, 20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("kHz"), std::string::npos);
}

}  // namespace
}  // namespace freerider::dsp
