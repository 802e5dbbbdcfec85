// Equivalence suite for the SIMD/bit-parallel PHY fast path
// (DESIGN.md §13): every fast kernel must match its legacy scalar
// reference bit-for-bit — same decoded bits, same Detection, same
// RxResult down to the float fields — across rates, lengths, erasure
// phases, SNRs straddling the detection threshold, and workspace reuse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "channel/awgn.h"
#include "common/rng.h"
#include "dsp/kernels.h"
#include "dsp/workspace.h"
#include "phy80211/convolutional.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"
#include "phy80211/receiver.h"
#include "phy80211/sync.h"
#include "phy80211/transmitter.h"

namespace freerider::phy80211 {
namespace {

constexpr CodingRate kRates[] = {CodingRate::kHalf, CodingRate::kTwoThirds,
                                 CodingRate::kThreeQuarters};

// Mother-coded stream with channel bit-flips and the puncture-position
// erasures the RX chain feeds the decoder. `info_len` rotates the tail
// of the stream through every phase of the puncture period.
BitVector NoisyDepuncturedStream(Rng& rng, std::size_t info_len,
                                 CodingRate rate, double flip_prob) {
  BitVector info = RandomBits(rng, info_len);
  const BitVector mother = ConvolutionalEncode(info);
  BitVector punctured = Puncture(mother, rate);
  for (auto& b : punctured) {
    if (rng.NextDouble() < flip_prob) b ^= 1;
  }
  return Depuncture(punctured, rate, mother.size());
}

TEST(FastViterbiTest, HardMatchesScalarAcrossRatesAndLengths) {
  // Lengths 1..256 cover every puncture phase at the stream tail for
  // both punctured rates (periods 4 and 6 mother bits).
  std::vector<std::uint8_t> decisions;
  for (CodingRate rate : kRates) {
    for (std::size_t len = 1; len <= 256; ++len) {
      Rng rng(1000 + len);
      const BitVector coded =
          NoisyDepuncturedStream(rng, len, rate, 0.05);
      const BitVector ref = ViterbiDecodeScalar(coded);
      BitVector fast;
      ViterbiDecodeInto(coded, decisions, fast);
      ASSERT_EQ(ref, fast) << "rate=" << static_cast<int>(rate)
                           << " len=" << len;
    }
  }
}

TEST(FastViterbiTest, HardMatchesScalarLongFramesManySeeds) {
  std::vector<std::uint8_t> decisions;
  for (CodingRate rate : kRates) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      Rng rng(seed * 31 + 7);
      const BitVector coded = NoisyDepuncturedStream(rng, 1000, rate, 0.08);
      const BitVector ref = ViterbiDecodeScalar(coded);
      BitVector fast;
      ViterbiDecodeInto(coded, decisions, fast);
      ASSERT_EQ(ref, fast) << "rate=" << static_cast<int>(rate)
                           << " seed=" << seed;
    }
  }
}

TEST(FastViterbiTest, HardMatchesScalarWithErasuresAtEveryPhase) {
  // Beyond the natural puncture positions: force an erasure at every
  // residue of the widest puncture period (6 mother bits = positions
  // 0..11 of the interleaved stream) to pin phase-independence.
  std::vector<std::uint8_t> decisions;
  for (std::size_t phase = 0; phase < 12; ++phase) {
    Rng rng(500 + phase);
    BitVector coded = NoisyDepuncturedStream(rng, 120, CodingRate::kHalf, 0.1);
    for (std::size_t i = phase; i < coded.size(); i += 12) coded[i] = 2;
    const BitVector ref = ViterbiDecodeScalar(coded);
    BitVector fast;
    ViterbiDecodeInto(coded, decisions, fast);
    ASSERT_EQ(ref, fast) << "phase=" << phase;
  }
}

TEST(FastViterbiTest, SoftMatchesScalarAcrossRatesAndLengths) {
  std::vector<std::uint8_t> decisions;
  for (CodingRate rate : kRates) {
    for (std::size_t len = 1; len <= 256; ++len) {
      Rng rng(2000 + len);
      BitVector info = RandomBits(rng, len);
      const BitVector mother = ConvolutionalEncode(info);
      const BitVector punctured = Puncture(mother, rate);
      std::vector<double> noisy;
      noisy.reserve(punctured.size());
      for (Bit b : punctured) {
        noisy.push_back((b ? 1.0 : -1.0) + 0.8 * rng.NextGaussian());
      }
      const std::vector<double> llrs =
          DepunctureSoft(noisy, rate, mother.size());
      const BitVector ref = ViterbiDecodeSoftScalar(llrs);
      BitVector fast;
      ViterbiDecodeSoftInto(llrs, decisions, fast);
      ASSERT_EQ(ref, fast) << "rate=" << static_cast<int>(rate)
                           << " len=" << len;
    }
  }
}

TEST(FastViterbiTest, SoftMatchesScalarLongFramesManySeeds) {
  std::vector<std::uint8_t> decisions;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed * 17 + 3);
    BitVector info = RandomBits(rng, 1000);
    const BitVector coded = ConvolutionalEncode(info);
    std::vector<double> llrs;
    llrs.reserve(coded.size());
    for (Bit b : coded) {
      llrs.push_back((b ? 1.0 : -1.0) + 1.2 * rng.NextGaussian());
    }
    const BitVector ref = ViterbiDecodeSoftScalar(llrs);
    BitVector fast;
    ViterbiDecodeSoftInto(llrs, decisions, fast);
    ASSERT_EQ(ref, fast) << "seed=" << seed;
  }
}

TEST(FastViterbiTest, PublicDispatchersMatchScalarOnEmptyInput) {
  std::vector<std::uint8_t> decisions;
  BitVector out{1, 1, 1};
  ViterbiDecodeInto(BitVector{}, decisions, out);
  EXPECT_TRUE(out.empty());
  out = {1, 1, 1};
  ViterbiDecodeSoftInto(std::vector<double>{}, decisions, out);
  EXPECT_TRUE(out.empty());
}

// What the scan's 1-position remainder writes for one position: the
// oracle every lane of the 8-position block must match bit for bit.
double RemainderNcorr(const double* x_re, const double* x_im,
                      const double* p_re, const double* p_im, std::size_t len,
                      double energy, double p_energy) {
  if (energy <= 0.0) return 0.0;
  const double power = dsp::CorrelationPower(x_re, x_im, p_re, p_im, len);
  return std::sqrt(power) / std::sqrt(energy * p_energy);
}

using X8Kernel = void (*)(const double*, const double*, const double*,
                          const double*, std::size_t, const double*, double,
                          double*);

// One kernel input: x carries len + 7 samples, so all 8 lanes see a
// full window.
struct X8Case {
  const char* name;
  std::vector<double> xr, xi, pr, pi;
  std::vector<double> energy;  // 8 lanes
  double p_energy;
};

// x = 1 + 2^-30 and p = 1 - 2^-30 make x·p = 1 - 2^-60, which rounds to
// 1. Lane 0 pairs (x, x)·conj(p, -p) on even k, whose real part cancels
// to exactly 0 with two roundings but leaves ±2^-60 when a multiply-add
// is fused, and (0, 2)·conj(-1, 0) on odd k, which cancels the
// imaginary part exactly. Unfused, lane 0's power is exactly 0.
X8Case FmaSensitiveCase() {
  const double x = 1.0 + std::ldexp(1.0, -30);
  const double p = 1.0 - std::ldexp(1.0, -30);
  X8Case c{"fma-sensitive", {}, {}, {}, {}, {}, 64.0};
  for (std::size_t k = 0; k < 64 + 7; ++k) {
    const bool even = k % 2 == 0;
    c.xr.push_back(even ? x : 0.0);
    c.xi.push_back(even ? x : 2.0);
    if (k < 64) {
      c.pr.push_back(even ? p : -1.0);
      c.pi.push_back(even ? -p : 0.0);
    }
  }
  c.energy.assign(8, 3.0);
  return c;
}

std::vector<X8Case> X8Cases() {
  std::vector<X8Case> cases;
  Rng rng(11);
  const auto gaussian = [&](std::size_t n, double scale) {
    std::vector<double> v(n);
    for (auto& e : v) e = scale * rng.NextGaussian();
    return v;
  };
  const std::vector<double> positive = {1.5, 2.0, 64.0, 1e-300,
                                        1e300, 7.25, 0.5, 3.0};
  // Gated lanes (0, -0, negative), a NaN energy (the scalar form
  // computes it, giving NaN) and extreme magnitudes.
  const std::vector<double> mixed = {
      1.5, 0.0, -0.0, -2.0, 3.0, std::numeric_limits<double>::quiet_NaN(),
      1e-300, 1e300};
  for (const auto& [name, scale] :
       {std::pair{"random", 1.0}, std::pair{"1e+150", 1e150},
        std::pair{"1e-150", 1e-150}, std::pair{"subnormal", 1e-310}}) {
    X8Case c{name, gaussian(71, scale), gaussian(71, scale),
             gaussian(64, 1.0), gaussian(64, 1.0), positive, 45.0};
    cases.push_back(c);
    c.energy = mixed;
    cases.push_back(c);
  }
  // Both sides huge: products overflow to inf and inf - inf is NaN.
  cases.push_back({"1e+150 both", gaussian(71, 1e150), gaussian(71, 1e150),
                   gaussian(64, 1e150), gaussian(64, 1e150), positive, 1.0});
  cases.push_back({"zero", std::vector<double>(71, 0.0),
                   std::vector<double>(71, 0.0), gaussian(64, 1.0),
                   gaussian(64, 1.0), mixed, 64.0});
  cases.push_back(FmaSensitiveCase());
  return cases;
}

void ExpectX8MatchesRemainder(X8Kernel kernel) {
  for (const X8Case& c : X8Cases()) {
    double out[8];
    kernel(c.xr.data(), c.xi.data(), c.pr.data(), c.pi.data(), 64,
           c.energy.data(), c.p_energy, out);
    for (std::size_t j = 0; j < 8; ++j) {
      const double want =
          RemainderNcorr(c.xr.data() + j, c.xi.data() + j, c.pr.data(),
                         c.pi.data(), 64, c.energy[j], c.p_energy);
      EXPECT_EQ(std::memcmp(&want, &out[j], sizeof want), 0)
          << c.name << " lane " << j << ": want " << want << " got "
          << out[j];
    }
  }
}

TEST(FastCorrelationTest, FmaCaseSeparatesFusedFromUnfused) {
  // The case is only a contraction detector if fusing changes lane 0.
  const X8Case c = FmaSensitiveCase();
  double cr = 0.0;
  double ci = 0.0;
  for (std::size_t k = 0; k < 64; ++k) {
    cr += std::fma(c.xr[k], c.pr[k], c.xi[k] * c.pi[k]);
    ci += std::fma(c.xi[k], c.pr[k], -(c.xr[k] * c.pi[k]));
  }
  EXPECT_NE(cr * cr + ci * ci, 0.0);
  EXPECT_EQ(dsp::CorrelationPower(c.xr.data(), c.xi.data(), c.pr.data(),
                                  c.pi.data(), 64),
            0.0);
}

TEST(FastCorrelationTest, BaselineBuildMatchesRemainderKernel) {
  ExpectX8MatchesRemainder(dsp::NormalizedCorrelationX8Baseline);
}

TEST(FastCorrelationTest, Avx2BuildMatchesRemainderKernel) {
  if (!dsp::CpuHasAvx2()) GTEST_SKIP() << "host has no AVX2";
  ExpectX8MatchesRemainder(dsp::NormalizedCorrelationX8Avx2);
}

TEST(FastCorrelationTest, BlockedKernelMatchesSinglePosition) {
  // The dispatched block (whichever build this host runs) must equal
  // the 1-position kernel exactly — the scan remainder depends on it.
  ExpectX8MatchesRemainder(dsp::NormalizedCorrelationX8);
}

IqBuffer NoisyCapture(std::uint64_t seed, double rx_power_dbm,
                      std::size_t payload_len = 40,
                      std::size_t pad_front = 321) {
  Rng rng(seed);
  const TxFrame frame = BuildFrame(RandomBytes(rng, payload_len), {});
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  // Odd front pad so the frame start exercises the blocked scan's
  // mid-block (and remainder) positions, not just multiples of 8.
  IqBuffer padded(pad_front, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.resize(padded.size() + 137, Cplx{0.0, 0.0});
  return channel::ApplyLink(padded, rx_power_dbm, fe, rng);
}

TEST(FastDetectTest, DetectionMatchesScalarAcrossSnrs) {
  // Power sweep straddles the detection threshold: strong captures
  // detect, deep-noise ones don't, and both paths must agree on every
  // field at every level — including the marginal ones.
  dsp::Workspace ws;
  int found = 0;
  int missed = 0;
  for (double dbm = -55.0; dbm >= -100.0; dbm -= 5.0) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const IqBuffer rx = NoisyCapture(seed, dbm);
      const Detection ref = DetectPreambleScalar(rx, 0.55);
      const Detection fast = DetectPreambleFast(rx, 0.55, ws);
      ASSERT_EQ(ref.found, fast.found) << "dbm=" << dbm << " seed=" << seed;
      ASSERT_EQ(ref.second_ltf_start, fast.second_ltf_start)
          << "dbm=" << dbm << " seed=" << seed;
      (ref.found ? found : missed) += 1;
    }
  }
  // The sweep must actually straddle the threshold to mean anything.
  EXPECT_GT(found, 0);
  EXPECT_GT(missed, 0);
}

TEST(FastDetectTest, ScanMatchesScalarInEveryBlockLane) {
  // Front pads 0..15 put the frame start in every lane of an 8-position
  // block; zero pads add gated (zero-energy) windows around it; tails
  // of 0..7 extra samples give positions % 8 every value, so the
  // remainder runs 0..7 positions. Besides the Detection, every ncorr
  // the scan wrote must equal the 1-position remainder's value.
  const IqBuffer ltf = LongTrainingSymbol64();
  std::vector<double> ltf_re, ltf_im;
  double ltf_energy = 0.0;
  for (const Cplx& x : ltf) {
    ltf_re.push_back(x.real());
    ltf_im.push_back(x.imag());
    ltf_energy += std::norm(x);
  }
  dsp::Workspace ws;
  std::size_t residues_seen = 0;
  for (std::size_t pad = 0; pad < 16; ++pad) {
    for (const bool zero_pads : {false, true}) {
      IqBuffer rx = NoisyCapture(40 + pad, -62.0, 40, pad);
      if (zero_pads) {
        IqBuffer padded(67 + pad, Cplx{0.0, 0.0});
        padded.insert(padded.end(), rx.begin(), rx.end());
        padded.resize(padded.size() + 70, Cplx{0.0, 0.0});
        rx = std::move(padded);
      }
      rx.resize(rx.size() + (8 - (rx.size() - kFftSize + 1) % 8) % 8 + pad % 8,
                Cplx{0.0, 0.0});
      const std::size_t positions = rx.size() - kFftSize + 1;
      residues_seen |= std::size_t{1} << (positions % 8);
      const Detection ref = DetectPreambleScalar(rx, 0.55);
      const Detection fast = DetectPreambleFast(rx, 0.55, ws);
      ASSERT_TRUE(ref.found) << "pad " << pad;
      EXPECT_EQ(ref.found, fast.found) << "pad " << pad;
      EXPECT_EQ(ref.second_ltf_start, fast.second_ltf_start) << "pad " << pad;
      ASSERT_EQ(ws.ncorr.size(), positions);
      for (std::size_t n = 0; n < positions; ++n) {
        const double want = RemainderNcorr(
            ws.scan_re.data() + n, ws.scan_im.data() + n, ltf_re.data(),
            ltf_im.data(), kFftSize, ws.win_energy[n], ltf_energy);
        ASSERT_EQ(std::memcmp(&want, &ws.ncorr[n], sizeof want), 0)
            << "pad " << pad << " zero_pads " << zero_pads << " n " << n;
      }
    }
  }
  EXPECT_EQ(residues_seen, 0xFFu);
}

void ExpectSameResult(const RxResult& ref, const RxResult& fast,
                      const char* what) {
  EXPECT_EQ(ref.detected, fast.detected) << what;
  EXPECT_EQ(ref.signal_ok, fast.signal_ok) << what;
  EXPECT_EQ(ref.fcs_ok, fast.fcs_ok) << what;
  EXPECT_EQ(ref.rate, fast.rate) << what;
  EXPECT_EQ(ref.psdu_len, fast.psdu_len) << what;
  EXPECT_EQ(ref.psdu, fast.psdu) << what;
  EXPECT_EQ(ref.data_bits, fast.data_bits) << what;
  EXPECT_EQ(ref.num_data_symbols, fast.num_data_symbols) << what;
  EXPECT_EQ(ref.scrambler_seed, fast.scrambler_seed) << what;
  EXPECT_EQ(ref.start_index, fast.start_index) << what;
  // Float fields compared exactly: the fast chain's arithmetic is
  // order-preserving, so these are bit-identical, not merely close.
  EXPECT_EQ(ref.rssi_dbm, fast.rssi_dbm) << what;
  EXPECT_EQ(ref.cfo_hz, fast.cfo_hz) << what;
  ASSERT_EQ(ref.constellation.size(), fast.constellation.size()) << what;
  for (std::size_t i = 0; i < ref.constellation.size(); ++i) {
    EXPECT_EQ(ref.constellation[i], fast.constellation[i]) << what;
  }
}

TEST(FastRxChainTest, FullChainMatchesScalarAcrossSnrs) {
  for (double dbm : {-60.0, -75.0, -85.0, -92.0}) {
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
      const IqBuffer rx = NoisyCapture(seed, dbm, 100);
      const RxResult ref = ReceiveFrameScalar(rx);
      dsp::Workspace ws;
      RxResult fast;
      ReceiveFrame(rx, {}, ws, fast);
      ExpectSameResult(ref, fast, "default config");

      RxConfig soft;
      soft.soft_decision = true;
      soft.collect_constellation = true;
      const RxResult ref_soft = ReceiveFrameScalar(rx, soft);
      RxResult fast_soft;
      ReceiveFrame(rx, soft, ws, fast_soft);
      ExpectSameResult(ref_soft, fast_soft, "soft+constellation");
    }
  }
}

TEST(FastRxChainTest, WorkspaceReuseIsBitIdentical) {
  // One workspace reused across frames of different sizes and configs
  // must give the same results as a fresh workspace per frame —
  // leftover capacities and stale contents may never leak into output.
  dsp::Workspace reused;
  RxResult reused_result;
  const std::size_t payloads[] = {400, 23, 117, 40};
  for (std::size_t i = 0; i < std::size(payloads); ++i) {
    const IqBuffer rx = NoisyCapture(77 + i, -62.0, payloads[i]);
    RxConfig config;
    config.soft_decision = (i % 2 == 1);
    dsp::Workspace fresh;
    RxResult fresh_result;
    ReceiveFrame(rx, config, fresh, fresh_result);
    ReceiveFrame(rx, config, reused, reused_result);
    ExpectSameResult(fresh_result, reused_result, "reuse vs fresh");
    EXPECT_TRUE(fresh_result.fcs_ok) << "frame " << i;
  }
}

// Degenerate-window regression class: these captures used to reach the
// correlation scan (or detect past the end of the buffer) before the
// PickPairPeak guards.
TEST(FastDetectTest, AllZeroBufferNeverDetects) {
  const IqBuffer zeros(1024, Cplx{0.0, 0.0});
  dsp::Workspace ws;
  for (double threshold : {0.55, 0.0, -1.0}) {
    EXPECT_FALSE(DetectPreambleScalar(zeros, threshold).found);
    EXPECT_FALSE(DetectPreambleFast(zeros, threshold, ws).found);
  }
}

TEST(FastDetectTest, TooShortBufferNeverDetects) {
  dsp::Workspace ws;
  for (std::size_t n = 0; n < 128; ++n) {
    const IqBuffer rx(n, Cplx{0.1, -0.2});
    EXPECT_FALSE(DetectPreambleScalar(rx, 0.0).found) << n;
    EXPECT_FALSE(DetectPreambleFast(rx, 0.0, ws).found) << n;
  }
}

TEST(FastDetectTest, TruncatedCaptureRejectedByBothPaths) {
  // A capture cut off right after the preamble has a perfect LTF pair
  // but no room for the SIGNAL symbol — both paths must reject it
  // instead of returning a start index past the buffer.
  Rng rng(5);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 40), {});
  dsp::Workspace ws;
  for (std::size_t keep = 2 * kFftSize + 64; keep < 400; keep += 17) {
    IqBuffer cut(frame.waveform.begin(),
                 frame.waveform.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(keep, frame.waveform.size())));
    const Detection ref = DetectPreambleScalar(cut, 0.55);
    const Detection fast = DetectPreambleFast(cut, 0.55, ws);
    EXPECT_EQ(ref.found, fast.found) << keep;
    EXPECT_EQ(ref.second_ltf_start, fast.second_ltf_start) << keep;
    if (ref.found) {
      EXPECT_LE(ref.second_ltf_start + kFftSize + kSymbolLen, cut.size())
          << keep;
    }
  }
}

TEST(FastDetectTest, ZeroPaddedTailDoesNotShiftDetection) {
  // Trailing zeros create zero-energy windows near the end of the scan
  // — the energy gate must skip them without disturbing the peak.
  const IqBuffer rx = NoisyCapture(21, -60.0);
  IqBuffer padded = rx;
  padded.resize(padded.size() + 333, Cplx{0.0, 0.0});
  dsp::Workspace ws;
  const Detection base = DetectPreambleFast(rx, 0.55, ws);
  const Detection tail = DetectPreambleFast(padded, 0.55, ws);
  ASSERT_TRUE(base.found);
  EXPECT_EQ(base.second_ltf_start, tail.second_ltf_start);
  const Detection scalar_tail = DetectPreambleScalar(padded, 0.55);
  EXPECT_EQ(scalar_tail.found, tail.found);
  EXPECT_EQ(scalar_tail.second_ltf_start, tail.second_ltf_start);
}

}  // namespace
}  // namespace freerider::phy80211
