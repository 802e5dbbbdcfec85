// Equivalence suite for the SIMD/bit-parallel PHY fast path
// (DESIGN.md §13): every fast kernel must match the scalar reference
// oracles defined below bit for bit — same decoded bits, same
// Detection, same RxResult down to the float fields — across rates,
// lengths, erasure phases, SNRs straddling the detection threshold,
// carrier frequency offsets, every RxConfig toggle, and workspace reuse.
// The oracles are the scalar chain that src/phy80211 shipped before the
// fast path; they exist only here.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/crc.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/kernels.h"
#include "dsp/signal_ops.h"
#include "dsp/workspace.h"
#include "phy80211/constellation.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"
#include "phy80211/receiver.h"
#include "phy80211/scrambler.h"
#include "phy80211/sync.h"
#include "phy80211/transmitter.h"

namespace freerider::phy80211 {
namespace {

// ------------------------------------------------------ reference oracles
//
// The scalar 802.11 receive chain the fast path replaced: a per-position
// complex-MAC preamble scan, branchy scalar Viterbi trellises with
// packed-byte traceback, and an RX chain that allocates per stage. The
// fast chain must match it bit for bit. The code is the former
// src/phy80211 implementation, moved here unchanged except that the
// soft demap and deinterleave call the *Into forms, PhaseTracker keeps
// only the allocating branch this chain used, and the private helpers
// it shared with the fast chain (BranchOutputs, PickPairPeak,
// EstimateCfoHz, ParseSignal, PhaseTracker) are copies.

// Generator taps expressed as delay masks with the *newest* bit in the
// LSB: g0 = 133 octal touches delays {0,2,3,5,6} (Eq. 9, C1), g1 = 171
// octal touches delays {0,1,2,3,6} (Eq. 9, C2).
constexpr std::uint8_t kG0 = 0x6D;
constexpr std::uint8_t kG1 = 0x4F;
constexpr int kConstraint = 7;
constexpr int kNumStates = 1 << (kConstraint - 1);  // 64

constexpr Bit Parity(std::uint8_t x) {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<Bit>(x & 1u);
}

// Output pair for (state, input). State holds the 6 previous bits with
// the most recent in the LSB.
constexpr void BranchOutputs(int state, Bit input, Bit& out_a, Bit& out_b) {
  // 7-bit window with the newest bit in the LSB; window bit i is the
  // input delayed by i, so the delay masks apply directly.
  const std::uint8_t window =
      static_cast<std::uint8_t>((state << 1) | input);
  out_a = Parity(window & kG0);
  out_b = Parity(window & kG1);
}

/// Scalar-path traceback: decisions pack bits 6..1 = predecessor state,
/// bit 0 = input, one byte per (step, state).
template <typename Metric>
void Traceback(const std::uint8_t* decisions, std::size_t steps,
               const Metric* final_metric, BitVector& out) {
  int state = static_cast<int>(
      std::min_element(final_metric, final_metric + kNumStates) -
      final_metric);
  out.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint8_t d = decisions[t * kNumStates + state];
    out[t] = static_cast<Bit>(d & 1u);
    state = (d >> 1) & (kNumStates - 1);
  }
}

BitVector ViterbiDecodeSoftScalar(std::span<const double> llrs) {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("Viterbi soft input must be even length");
  }
  const std::size_t steps = llrs.size() / 2;
  if (steps == 0) return {};

  constexpr double kInf = 1e30;
  std::vector<double> metric(kNumStates, kInf);
  std::vector<double> next_metric(kNumStates, kInf);
  metric[0] = 0.0;
  std::vector<std::uint8_t> decisions(steps * kNumStates);

  struct Branch {
    Bit a, b;
  };
  static const auto branch_table = [] {
    std::array<std::array<Branch, 2>, kNumStates> t{};
    for (int s = 0; s < kNumStates; ++s) {
      for (int in = 0; in < 2; ++in) {
        BranchOutputs(s, static_cast<Bit>(in), t[s][in].a, t[s][in].b);
      }
    }
    return t;
  }();

  for (std::size_t t = 0; t < steps; ++t) {
    const double la = llrs[2 * t];
    const double lb = llrs[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    std::uint8_t* dec = &decisions[t * kNumStates];
    for (int s = 0; s < kNumStates; ++s) {
      const double m = metric[s];
      if (m >= kInf) continue;
      for (int in = 0; in < 2; ++in) {
        const Branch& br = branch_table[s][in];
        // Penalize disagreement between the branch bit and the LLR sign
        // by the LLR magnitude (max-log metric).
        double cost = m;
        if ((la > 0.0) != (br.a == 1)) cost += std::abs(la);
        if ((lb > 0.0) != (br.b == 1)) cost += std::abs(lb);
        const int ns = ((s << 1) | in) & (kNumStates - 1);
        if (cost < next_metric[ns]) {
          next_metric[ns] = cost;
          dec[ns] = static_cast<std::uint8_t>((s << 1) | in);
        }
      }
    }
    metric.swap(next_metric);
  }

  BitVector info;
  Traceback(decisions.data(), steps, metric.data(), info);
  return info;
}

BitVector ViterbiDecodeScalar(std::span<const Bit> coded_with_erasures) {
  if (coded_with_erasures.size() % 2 != 0) {
    throw std::invalid_argument("Viterbi input must be even length");
  }
  const std::size_t steps = coded_with_erasures.size() / 2;
  if (steps == 0) return {};

  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 2;
  std::vector<std::uint32_t> metric(kNumStates, kInf);
  std::vector<std::uint32_t> next_metric(kNumStates, kInf);
  metric[0] = 0;

  // decisions[t][state] = input bit that led to `state` on the survivor.
  // Stored packed as one byte per state for simple traceback.
  std::vector<std::uint8_t> decisions(steps * kNumStates);

  // Precompute branch outputs once.
  struct Branch {
    Bit a, b;
  };
  static const auto branch_table = [] {
    std::array<std::array<Branch, 2>, kNumStates> t{};
    for (int s = 0; s < kNumStates; ++s) {
      for (int in = 0; in < 2; ++in) {
        BranchOutputs(s, static_cast<Bit>(in), t[s][in].a, t[s][in].b);
      }
    }
    return t;
  }();

  for (std::size_t t = 0; t < steps; ++t) {
    const Bit ra = coded_with_erasures[2 * t];
    const Bit rb = coded_with_erasures[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    std::uint8_t* dec = &decisions[t * kNumStates];
    for (int s = 0; s < kNumStates; ++s) {
      const std::uint32_t m = metric[s];
      if (m >= kInf) continue;
      for (int in = 0; in < 2; ++in) {
        const Branch& br = branch_table[s][in];
        std::uint32_t cost = m;
        if (ra != 2 && br.a != ra) ++cost;
        if (rb != 2 && br.b != rb) ++cost;
        const int ns = ((s << 1) | in) & (kNumStates - 1);
        if (cost < next_metric[ns]) {
          next_metric[ns] = cost;
          dec[ns] = static_cast<std::uint8_t>((s << 1) | in);
          // dec packs: bits 6..1 = predecessor state, bit 0 = input.
        }
      }
    }
    metric.swap(next_metric);
  }

  // Best final state (zero tail drives this to state 0 in practice).
  BitVector info;
  Traceback(decisions.data(), steps, metric.data(), info);
  return info;
}

/// Shared peak/validation stage. Both implementations feed it their
/// ncorr/win_energy arrays; the win_energy doubles are bit-identical
/// between the two paths (same recurrence), so the degenerate-window
/// gating decisions below are identical by construction.
Detection PickPairPeak(const double* ncorr, const double* win_energy,
                       std::size_t positions, std::size_t rx_size,
                       double threshold) {
  // The LTF gives two adjacent full-symbol peaks 64 samples apart.
  // Find the best position with a confirming peak at +64. Windows with
  // non-positive energy have no defined normalized correlation — they
  // are excluded rather than scanned as ncorr == 0 placeholders.
  double best = 0.0;
  std::size_t best_n = 0;
  bool have_peak = false;
  for (std::size_t n = 0; n + 64 < positions; ++n) {
    if (win_energy[n] <= 0.0 || win_energy[n + 64] <= 0.0) continue;
    const double pair = std::min(ncorr[n], ncorr[n + 64]);
    if (pair > best) {
      best = pair;
      best_n = n;
      have_peak = true;
    }
  }
  // `have_peak` also rejects the all-zero/degenerate buffer at
  // threshold <= 0: a correlation of exactly zero is never a packet.
  if (!have_peak || best < threshold) return {};
  // A frame whose SIGNAL symbol cannot fit inside the capture is
  // undecodable — reject instead of handing downstream a start index
  // past the buffer (truncated-capture bug class).
  if (best_n + 2 * kFftSize + kSymbolLen > rx_size) return {};
  return {true, best_n + 64};
}

Detection DetectPreambleScalar(std::span<const Cplx> rx, double threshold) {
  static const IqBuffer ltf = LongTrainingSymbol64();
  static const double ltf_energy = [&] {
    double e = 0.0;
    for (const Cplx& x : ltf) e += std::norm(x);
    return e;
  }();

  if (rx.size() < ltf.size() + 64) return {};

  // Sliding window energy for normalization.
  const std::size_t positions = rx.size() - ltf.size() + 1;
  std::vector<double> win_energy(positions);
  double acc = 0.0;
  for (std::size_t n = 0; n < ltf.size(); ++n) acc += std::norm(rx[n]);
  win_energy[0] = acc;
  for (std::size_t n = 1; n < positions; ++n) {
    acc += std::norm(rx[n + ltf.size() - 1]) - std::norm(rx[n - 1]);
    win_energy[n] = acc;
  }

  std::vector<double> ncorr(positions, 0.0);
  for (std::size_t n = 0; n < positions; ++n) {
    if (win_energy[n] <= 0.0) continue;
    Cplx c{0.0, 0.0};
    for (std::size_t k = 0; k < ltf.size(); ++k) {
      c += rx[n + k] * std::conj(ltf[k]);
    }
    ncorr[n] = std::abs(c) / std::sqrt(win_energy[n] * ltf_energy);
  }

  return PickPairPeak(ncorr.data(), win_energy.data(), positions, rx.size(),
                      threshold);
}

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

/// Decision-directed residual-phase tracker: first-order loop updated
/// from the mean rotation of equalized points against their nearest
/// constellation points. Symmetric under the constellation's rotational
/// symmetry group, hence transparent to the tag's codeword translation.
class PhaseTracker {
 public:
  PhaseTracker(bool enabled, Modulation mod) : enabled_(enabled), mod_(mod) {}

  void Apply(IqBuffer& points) {
    if (!enabled_) return;
    const Cplx derot{std::cos(-phase_), std::sin(-phase_)};
    for (auto& p : points) p *= derot;
    // Residual rotation against hard decisions.
    Cplx acc{0.0, 0.0};
    const BitVector hard = DemapSymbols(points, mod_);
    const IqBuffer ref = MapBits(hard, mod_);
    for (std::size_t i = 0; i < points.size(); ++i) {
      acc += points[i] * std::conj(ref[i]);
    }
    if (std::norm(acc) < 1e-30) return;
    // Clamp the per-symbol step: residual CFO drifts a few tens of
    // millirad per symbol; larger apparent jumps are decision noise
    // (e.g. the corrupted symbol at a tag window boundary).
    const double alpha = std::clamp(std::arg(acc), -0.3, 0.3);
    phase_ += alpha;
  }

 private:
  bool enabled_;
  Modulation mod_;
  double phase_ = 0.0;
};

/// Equalized data-subcarrier points of one symbol (allocating form).
IqBuffer DemodSymbolPoints(std::span<const Cplx> symbol80,
                           std::span<const Cplx> channel,
                           std::size_t symbol_index, const RxConfig& config,
                           IqBuffer* constellation_out, PhaseTracker* tracker) {
  IqBuffer bins = DemodulateSymbol(symbol80);
  IqBuffer data = ExtractDataSubcarriers(bins, channel);
  if (config.pilot_phase_correction) {
    const double cpe = PilotPhaseError(bins, channel, symbol_index);
    const Cplx derot{std::cos(-cpe), std::sin(-cpe)};
    for (auto& x : data) x *= derot;
  }
  if (tracker != nullptr) tracker->Apply(data);
  if (constellation_out != nullptr) {
    constellation_out->insert(constellation_out->end(), data.begin(), data.end());
  }
  return data;
}

/// Decode one symbol's worth of interleaved coded bits (hard decision).
BitVector DemodSymbolBits(std::span<const Cplx> symbol80,
                          std::span<const Cplx> channel, const RateParams& params,
                          std::size_t symbol_index, const RxConfig& config,
                          IqBuffer* constellation_out) {
  const IqBuffer data = DemodSymbolPoints(symbol80, channel, symbol_index,
                                          config, constellation_out, nullptr);
  const BitVector hard = DemapSymbols(data, params.modulation);
  return DeinterleaveSymbol(hard, params);
}

/// CFO estimate from the periodicity of a training region: the phase
/// of the lag-`period` autocorrelation advances by 2π·f·period/fs.
double EstimateCfoHz(std::span<const Cplx> region, std::size_t period) {
  Cplx acc{0.0, 0.0};
  for (std::size_t n = 0; n + period < region.size(); ++n) {
    acc += region[n + period] * std::conj(region[n]);
  }
  if (std::norm(acc) < 1e-30) return 0.0;
  return std::arg(acc) * kSampleRateHz / (kTwoPi * static_cast<double>(period));
}

struct SignalInfo {
  bool ok = false;
  Rate rate = Rate::k6Mbps;
  std::size_t length = 0;
};

SignalInfo ParseSignal(std::span<const Bit> bits24) {
  SignalInfo info;
  std::uint8_t rate_bits = 0;
  for (int i = 0; i < 4; ++i) {
    rate_bits = static_cast<std::uint8_t>((rate_bits << 1) | bits24[i]);
  }
  const auto rate = RateFromSignalBits(rate_bits);
  if (!rate.has_value()) return info;
  if (bits24[4] != 0) return info;  // reserved bit
  std::size_t length = 0;
  for (int i = 0; i < 12; ++i) {
    length |= static_cast<std::size_t>(bits24[5 + i]) << i;
  }
  Bit parity = 0;
  for (int i = 0; i < 17; ++i) parity ^= bits24[i];
  if (parity != bits24[17]) return info;
  if (length == 0) return info;
  info.ok = true;
  info.rate = *rate;
  info.length = length;
  return info;
}

RxResult ReceiveFrameScalar(const IqBuffer& raw_rx,
                            const RxConfig& config = {}) {
  RxResult result;

  Detection det = DetectPreambleScalar(raw_rx, config.detection_threshold);
  if (!det.found) return result;
  result.detected = true;
  result.start_index = det.second_ltf_start - 64;

  // CFO estimation and correction on the preamble, then re-detect for
  // exact timing on the corrected buffer.
  IqBuffer rx = raw_rx;
  if (config.cfo_correction) {
    double cfo = 0.0;
    // Coarse: STF region (160 samples ending 160 before the LTF).
    if (result.start_index >= 192) {
      cfo += EstimateCfoHz(
          std::span<const Cplx>(rx).subspan(result.start_index - 184, 144), 16);
      rx = dsp::MixFrequency(rx, -cfo, kSampleRateHz);
    }
    // Fine: the two LTF symbols, period 64.
    cfo += EstimateCfoHz(
        std::span<const Cplx>(rx).subspan(result.start_index, 128), 64);
    rx = dsp::MixFrequency(raw_rx, -cfo, kSampleRateHz);
    result.cfo_hz = cfo;
    det = DetectPreambleScalar(rx, config.detection_threshold);
    if (!det.found) return result;
    result.start_index = det.second_ltf_start - 64;
  }

  // Channel estimation over both long training symbols.
  IqBuffer h(kFftSize, Cplx{0.0, 0.0});
  {
    IqBuffer y1(rx.begin() + static_cast<std::ptrdiff_t>(result.start_index),
                rx.begin() + static_cast<std::ptrdiff_t>(result.start_index) + 64);
    IqBuffer y2(rx.begin() + static_cast<std::ptrdiff_t>(det.second_ltf_start),
                rx.begin() + static_cast<std::ptrdiff_t>(det.second_ltf_start) + 64);
    dsp::Fft(y1);
    dsp::Fft(y2);
    for (int s = -26; s <= 26; ++s) {
      const Cplx l = LtfSymbolAt(s);
      if (std::norm(l) < 0.5) continue;
      const std::size_t bin = BinIndex(s);
      // H absorbs the TX time-domain scale and the channel gain, so
      // equalized data points land on the unit constellation grid.
      h[bin] = 0.5 * (y1[bin] + y2[bin]) / l;
    }
  }

  // SIGNAL symbol.
  const std::size_t signal_start = det.second_ltf_start + 64;
  if (signal_start + kSymbolLen > rx.size()) return result;
  const BitVector signal_coded = DemodSymbolBits(
      std::span<const Cplx>(rx).subspan(signal_start, kSymbolLen), h,
      ParamsFor(Rate::k6Mbps), 0, RxConfig{}, nullptr);
  const BitVector signal_bits = ViterbiDecodeScalar(signal_coded);
  const SignalInfo info = ParseSignal(signal_bits);
  if (!info.ok) return result;
  result.signal_ok = true;
  result.rate = info.rate;
  result.psdu_len = info.length;

  const auto& params = ParamsFor(info.rate);
  const std::size_t payload_bits = kServiceBits + info.length * 8 + kTailBits;
  const std::size_t num_symbols =
      (payload_bits + params.data_bits_per_symbol - 1) /
      params.data_bits_per_symbol;
  result.num_data_symbols = num_symbols;

  const std::size_t data_start = signal_start + kSymbolLen;
  if (data_start + num_symbols * kSymbolLen > rx.size()) {
    result.signal_ok = false;  // truncated capture
    return result;
  }

  // RSSI over the frame extent.
  result.rssi_dbm = dsp::PowerDbm(std::span<const Cplx>(rx).subspan(
      result.start_index, data_start + num_symbols * kSymbolLen - result.start_index));

  // Demodulate all data symbols, then depuncture and Viterbi-decode
  // (hard or soft per the configuration).
  const std::size_t info_bits = num_symbols * params.data_bits_per_symbol;
  IqBuffer* constellation =
      config.collect_constellation ? &result.constellation : nullptr;
  BitVector scrambled;
  PhaseTracker tracker(config.decision_directed_tracking, params.modulation);
  if (config.soft_decision) {
    std::vector<double> coded;
    coded.reserve(num_symbols * params.coded_bits_per_symbol);
    for (std::size_t s = 0; s < num_symbols; ++s) {
      const IqBuffer points = DemodSymbolPoints(
          std::span<const Cplx>(rx).subspan(data_start + s * kSymbolLen,
                                            kSymbolLen),
          h, s + 1, config, constellation, &tracker);
      std::vector<double> llrs;
      DemapSoftInto(points, params.modulation, llrs);
      std::vector<double> deint;
      DeinterleaveSymbolSoftInto(llrs, params, deint);
      coded.insert(coded.end(), deint.begin(), deint.end());
    }
    const std::vector<double> mother =
        DepunctureSoft(coded, params.coding, info_bits * 2);
    scrambled = ViterbiDecodeSoftScalar(mother);
  } else {
    BitVector coded;
    coded.reserve(num_symbols * params.coded_bits_per_symbol);
    for (std::size_t s = 0; s < num_symbols; ++s) {
      const IqBuffer points = DemodSymbolPoints(
          std::span<const Cplx>(rx).subspan(data_start + s * kSymbolLen,
                                            kSymbolLen),
          h, s + 1, config, constellation, &tracker);
      const BitVector hard = DemapSymbols(points, params.modulation);
      const BitVector sym_bits = DeinterleaveSymbol(hard, params);
      coded.insert(coded.end(), sym_bits.begin(), sym_bits.end());
    }
    const BitVector mother = Depuncture(coded, params.coding, info_bits * 2);
    scrambled = ViterbiDecodeScalar(mother);
  }

  result.scrambler_seed =
      RecoverScramblerSeed(std::span<const Bit>(scrambled).subspan(0, 7));
  if (result.scrambler_seed == 0) {
    // SERVICE corrupted beyond seed recovery; return raw bits unscrambled.
    result.data_bits = scrambled;
    return result;
  }
  Scrambler descrambler(result.scrambler_seed);
  result.data_bits = descrambler.Process(scrambled);

  // Zero the (known-zero) tail bits so streams compare cleanly.
  const std::size_t tail_pos = kServiceBits + info.length * 8;
  for (std::size_t i = 0; i < kTailBits && tail_pos + i < result.data_bits.size();
       ++i) {
    result.data_bits[tail_pos + i] = 0;
  }

  // Extract PSDU and check FCS.
  result.psdu = BitsToBytes(
      std::span<const Bit>(result.data_bits).subspan(kServiceBits, info.length * 8));
  if (info.length >= 5) {
    std::uint32_t fcs = 0;
    for (int i = 0; i < 4; ++i) {
      fcs |= static_cast<std::uint32_t>(result.psdu[info.length - 4 + i]) << (8 * i);
    }
    const std::uint32_t computed = Crc32(
        std::span<const std::uint8_t>(result.psdu).subspan(0, info.length - 4));
    result.fcs_ok = (fcs == computed);
  }
  return result;
}

// ------------------------------------------------------- equivalence tests

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
                      std::size_t pad_front = 321, double cfo_hz = 0.0) {
  Rng rng(seed);
  const TxFrame frame = BuildFrame(RandomBytes(rng, payload_len), {});
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  fe.cfo_hz = cfo_hz;
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

  // Oscillator offsets make the coarse and fine CFO mixes rotate the
  // capture for real (the fast chain mixes in place, the reference out
  // of place), and every RxConfig toggle runs against them. Each
  // toggled config collects the constellation, so the equalized points
  // are compared too.
  std::vector<std::pair<const char*, RxConfig>> configs(5);
  configs[0].first = "default config";
  configs[1] = {"soft+constellation", {}};
  configs[1].second.soft_decision = true;
  configs[2] = {"no cfo correction", {}};
  configs[2].second.cfo_correction = false;
  configs[3] = {"pilot phase correction", {}};
  configs[3].second.pilot_phase_correction = true;
  configs[4] = {"no decision-directed tracking", {}};
  configs[4].second.decision_directed_tracking = false;
  for (std::size_t i = 1; i < configs.size(); ++i) {
    configs[i].second.collect_constellation = true;
  }
  dsp::Workspace ws;
  for (double cfo : {0.0, 25e3, -25e3, 80e3, -80e3}) {
    for (double dbm : {-60.0, -85.0}) {
      for (std::uint64_t seed = 10; seed < 13; ++seed) {
        const IqBuffer rx = NoisyCapture(seed, dbm, 100, 321, cfo);
        for (const auto& [what, config] : configs) {
          const RxResult ref = ReceiveFrameScalar(rx, config);
          RxResult fast;
          ReceiveFrame(rx, config, ws, fast);
          SCOPED_TRACE(testing::Message()
                       << "cfo=" << cfo << " dbm=" << dbm << " seed=" << seed);
          ExpectSameResult(ref, fast, what);
          if (dbm == -60.0 && config.cfo_correction) {
            // The offset reached the estimator: a strong capture decodes
            // and the estimate lands on the applied offset.
            EXPECT_TRUE(ref.fcs_ok) << what;
            EXPECT_NEAR(ref.cfo_hz, cfo, 1e3) << what;
          }
        }
      }
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


// ------------------------------------------------ certified second scan
//
// DetectPreambleAfterMix must return exactly DetectPreambleFast's
// Detection of the mixed capture, run in full, whatever the first scan
// found: SNR and CFO sweeps, zero pads, ties, all-zero and non-finite
// captures, and a frame flush against the SIGNAL-fit limit.

// Runs the receiver's two scans on `raw` mixed by -cfo_hz and checks
// the certified second scan against the full scan on a fresh
// workspace. Returns the full scan's Detection. Also checks the bound
// position by position, not only where it decides the result: every
// window the full scan does not gate, yet the screen ruled out (a zero
// byte in scan_keep), must correlate below the cutoff — the threshold
// raised to the exact pair at the first scan's pick.
Detection ExpectRescanMatchesFullScan(const IqBuffer& raw, double cfo_hz,
                                      double threshold,
                                      const std::string& what) {
  dsp::Workspace ws;
  const Detection first = DetectPreambleFast(raw, threshold, ws);
  IqBuffer mixed;
  dsp::MixFrequencyInto(raw, -cfo_hz, kSampleRateHz, 0.0, mixed);
  const Detection got =
      DetectPreambleAfterMix(mixed, cfo_hz, first, threshold, ws);
  dsp::Workspace fresh;
  const Detection want = DetectPreambleFast(mixed, threshold, fresh);
  EXPECT_EQ(got.found, want.found) << what;
  EXPECT_EQ(got.second_ltf_start, want.second_ltf_start) << what;
  if (mixed.size() < 2 * kFftSize) return want;

  const std::size_t positions = mixed.size() - kFftSize + 1;
  const std::vector<double>& ncorr = fresh.ncorr;
  const std::vector<double>& energy = fresh.win_energy;
  double cutoff = threshold;
  if (first.found) {
    const std::size_t n = first.second_ltf_start - 64;
    if (energy[n] > 0.0 && energy[n + 64] > 0.0) {
      const double pair = std::min(ncorr[n], ncorr[n + 64]);
      if (pair > cutoff) cutoff = pair;
    }
  }
  std::size_t violations = 0;
  for (std::size_t n = 0; n < positions; ++n) {
    if (ws.scan_keep[n] != 0 || energy[n] <= 0.0) continue;
    if (!(ncorr[n] < cutoff)) ++violations;
  }
  EXPECT_EQ(violations, std::size_t{0}) << what;
  return want;
}

// A frame between `pad` zeros on each side, through a front end whose
// oscillator is off by `cfo_hz`, at `snr_db` over its noise floor.
IqBuffer RescanCapture(Rng& rng, std::size_t payload_len, double snr_db,
                       double cfo_hz, std::size_t pad) {
  const TxFrame frame = BuildFrame(RandomBytes(rng, payload_len), {});
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  fe.cfo_hz = cfo_hz;
  IqBuffer padded(pad, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.insert(padded.end(), pad, Cplx{0.0, 0.0});
  return channel::ApplyLink(padded, fe.NoiseFloorDbm() + snr_db, fe, rng);
}

TEST(CertifiedRescan, MatchesFullScanAcrossSnrCfoAndPads) {
  int found = 0;
  int missed = 0;
  int i = 0;
  for (double snr_db = -10.0; snr_db <= 30.0; snr_db += 5.0) {
    for (const double cfo : {0.0, 5e3, -5e3, 25e3, -25e3, 80e3, -80e3, 200e3,
                             -200e3}) {
      for (const std::size_t pad : {0, 150, 2000}) {
        Rng rng(Rng::ForTrial(1919, static_cast<std::uint64_t>(i), 0));
        const IqBuffer raw = RescanCapture(rng, 20 + rng.NextBelow(80), snr_db,
                                           cfo, pad);
        // The receiver's estimate is off by up to a few hundred Hz.
        const double mix_hz = cfo + 300.0 * ((i % 3) - 1);
        const double threshold = (i % 4 == 3) ? 0.3 : 0.55;
        const Detection want = ExpectRescanMatchesFullScan(
            raw, mix_hz, threshold,
            "snr " + std::to_string(snr_db) + " cfo " + std::to_string(cfo) +
                " pad " + std::to_string(pad));
        (want.found ? found : missed) += 1;
        ++i;
      }
    }
  }
  // The sweep must straddle the detection threshold.
  EXPECT_GT(found, 20);
  EXPECT_GT(missed, 20);
}

TEST(CertifiedRescan, ZeroTailAfterStrongFrame) {
  // After a strong frame the sliding-energy recurrence leaves rounding
  // residue where the true energy is zero; the bound must hold there.
  Rng rng(41);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 60), {});
  for (const double cfo : {0.0, 5e3, 80e3}) {
    IqBuffer noisy = RescanCapture(rng, 60, 40.0, cfo, 150);
    noisy.resize(noisy.size() + 2000, Cplx{0.0, 0.0});
    EXPECT_TRUE(ExpectRescanMatchesFullScan(noisy, cfo, 0.55, "noisy").found);
    for (const double scale : {1.0, 1e30, 1e-30}) {
      IqBuffer clean(150, Cplx{0.0, 0.0});
      for (const Cplx& x : frame.waveform) clean.push_back(scale * x);
      clean.resize(clean.size() + 2000, Cplx{0.0, 0.0});
      const IqBuffer raw = dsp::MixFrequency(clean, cfo, kSampleRateHz);
      EXPECT_TRUE(ExpectRescanMatchesFullScan(raw, cfo, 0.55,
                                              "clean x" + std::to_string(scale))
                      .found);
    }
  }
}

TEST(CertifiedRescan, RecurrenceCancellationAfterHugeSample) {
  // One sample of 2^30 swallows the energy of the 64 samples after it
  // (each |x|^2 < ulp(2^60) / 2), and its exit leaves the recurrence at
  // exactly 0, so every later window energy reads low by the filler's
  // energy F: the frame's LTF windows hold 1 - F / E of their true
  // energy, in both scans (the oscillator starts at phase 0, so the
  // huge sample mixes to itself). The rotation term scaled by that
  // energy no longer covers the CFO'd LTF pair; only the energy
  // allowance, which scales with the 2^60 of prefix energy, does.
  Rng rng(49);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 40), {});
  double ltf_window = 0.0;
  for (std::size_t k = 0; k < kFftSize; ++k) {
    ltf_window += std::norm(frame.waveform[192 + k]);
  }
  for (const double left : {0.05, 0.01}) {
    for (const double cfo : {80e3, 200e3}) {
      IqBuffer raw{Cplx{std::ldexp(1.0, 30), 0.0}};
      raw.resize(kFftSize + 1,
                 Cplx{std::sqrt((1.0 - left) * ltf_window / kFftSize), 0.0});
      const IqBuffer rotated = dsp::MixFrequency(frame.waveform, cfo,
                                                 kSampleRateHz);
      raw.insert(raw.end(), rotated.begin(), rotated.end());
      raw.resize(raw.size() + 100, Cplx{0.0, 0.0});
      EXPECT_TRUE(ExpectRescanMatchesFullScan(
                      raw, cfo, 0.55,
                      "left " + std::to_string(left) + " cfo " +
                          std::to_string(cfo))
                      .found);
    }
  }
}

TEST(CertifiedRescan, ExtremeScales) {
  // Window energies past the bound's safe range are kept unbounded;
  // the result must still be the full scan's.
  Rng rng(48);
  const IqBuffer base = RescanCapture(rng, 40, 25.0, 5e3, 150);
  for (const double scale : {1e-160, 1e-80, 1e80, 1e160}) {
    IqBuffer raw = base;
    for (auto& x : raw) x *= scale;
    ExpectRescanMatchesFullScan(raw, 5e3, 0.55,
                                "scale " + std::to_string(scale));
  }
}

TEST(CertifiedRescan, EarlierOfTwoIdenticalCopiesWinsTheTie) {
  // Samples on a 2^-10 grid keep every |x|^2 and every window-energy
  // update exact, and a 0 Hz mix leaves them unchanged, so both copies
  // give bit-identical pairs: strict `>` must keep the first.
  Rng rng(42);
  IqBuffer wave = BuildFrame(RandomBytes(rng, 30), {}).waveform;
  for (auto& x : wave) {
    x = {std::round(x.real() * 1024.0) / 1024.0,
         std::round(x.imag() * 1024.0) / 1024.0};
  }
  IqBuffer raw(300, Cplx{0.0, 0.0});
  raw.insert(raw.end(), wave.begin(), wave.end());
  raw.insert(raw.end(), 600, Cplx{0.0, 0.0});
  raw.insert(raw.end(), wave.begin(), wave.end());
  raw.insert(raw.end(), 300, Cplx{0.0, 0.0});
  const Detection want = ExpectRescanMatchesFullScan(raw, 0.0, 0.55, "tie");
  ASSERT_TRUE(want.found);
  ASSERT_LT(want.second_ltf_start, 300 + wave.size());
  const std::size_t n = want.second_ltf_start - 64;
  const std::size_t twin = n + wave.size() + 600;
  dsp::Workspace ws;
  DetectPreambleFast(raw, 0.55, ws);
  EXPECT_EQ(ws.ncorr[n], ws.ncorr[twin]);
  EXPECT_EQ(ws.ncorr[n + 64], ws.ncorr[twin + 64]);
}

TEST(CertifiedRescan, AllZeroBuffer) {
  const IqBuffer zeros(1024, Cplx{0.0, 0.0});
  for (const double threshold : {0.55, 0.0, -1.0}) {
    for (const double cfo : {0.0, 80e3}) {
      EXPECT_FALSE(ExpectRescanMatchesFullScan(zeros, cfo, threshold, "zeros")
                       .found);
    }
  }
}

TEST(CertifiedRescan, NonFiniteSampleBeforeAndAfterThePreamble) {
  Rng rng(43);
  const IqBuffer clean = RescanCapture(rng, 40, 25.0, 0.0, 500);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Cplx bad : {Cplx{nan, 0.0}, Cplx{0.0, inf}, Cplx{-inf, inf}}) {
    for (const std::size_t at : {std::size_t{40}, std::size_t{460},
                                 std::size_t{500 + 400}, clean.size() - 30}) {
      IqBuffer raw = clean;
      raw[at] = bad;
      for (const double cfo : {0.0, 25e3}) {
        ExpectRescanMatchesFullScan(raw, cfo, 0.55,
                                    "bad sample at " + std::to_string(at));
      }
    }
  }
}

TEST(CertifiedRescan, FrameFlushAgainstSignalFitLimit) {
  // Cut the capture so the SIGNAL symbol ends exactly at its last
  // sample, then one sample shorter: detected, then rejected.
  Rng rng(44);
  const IqBuffer raw = RescanCapture(rng, 40, 25.0, 5e3, 150);
  const Detection whole = ExpectRescanMatchesFullScan(raw, 5e3, 0.55, "whole");
  ASSERT_TRUE(whole.found);
  const std::size_t fit = whole.second_ltf_start + kFftSize + kSymbolLen;
  const IqBuffer flush(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(fit));
  EXPECT_TRUE(ExpectRescanMatchesFullScan(flush, 5e3, 0.55, "flush").found);
  const IqBuffer short_by_one(flush.begin(), flush.end() - 1);
  EXPECT_FALSE(
      ExpectRescanMatchesFullScan(short_by_one, 5e3, 0.55, "one short").found);
}

TEST(CertifiedRescan, ScreenPrunesAtSmallCfo) {
  // At a receiver-sized CFO the bound must rule out nearly every pair,
  // or the certified scan silently costs a full one.
  Rng rng(45);
  const IqBuffer raw = RescanCapture(rng, 800, 15.0, 2e3, 150);
  dsp::Workspace ws;
  const Detection first = DetectPreambleFast(raw, 0.55, ws);
  ASSERT_TRUE(first.found);
  IqBuffer mixed;
  dsp::MixFrequencyInto(raw, -2e3, kSampleRateHz, 0.0, mixed);
  DetectPreambleAfterMix(mixed, 2e3, first, 0.55, ws);
  const std::size_t positions = mixed.size() - kFftSize + 1;
  std::size_t kept = 0;
  for (std::size_t n = 0; n + 64 < positions; ++n) {
    kept += ws.scan_keep[n] & ws.scan_keep[n + 64];
  }
  EXPECT_GT(positions, std::size_t{20000});
  EXPECT_LT(kept, std::size_t{16});
}

TEST(CertifiedRescan, AllowancesKeepThousandfoldMargin) {
  // Each allowance must stay at least 10^3 times the error it covers,
  // measured against long-double references, so the bound never rides
  // on luck:
  //  * energy: |recurrence - exact window energy| / energy of x[0, n+64);
  //  * correlation: the first scan's chain against the exact raw
  //    correlation, plus the second scan's chain on the mixed capture
  //    against the exact correlation of the raw capture rotated by the
  //    oscillator's own step angle, over sqrt(E * E_ltf).
  // Captures span a long frame, a zero tail after a strong frame, and
  // absolute scales, at small and large CFO.
  using LCplx = std::complex<long double>;
  const IqBuffer ltf = LongTrainingSymbol64();
  long double ltf_energy = 0.0L;
  for (const Cplx& p : ltf) ltf_energy += std::norm(LCplx(p));
  const auto chain = [&](const Cplx* x) {  // DetectPreambleFast's chain
    double cr = 0.0;
    double ci = 0.0;
    for (std::size_t k = 0; k < kFftSize; ++k) {
      cr += x[k].real() * ltf[k].real() + x[k].imag() * ltf[k].imag();
      ci += x[k].imag() * ltf[k].real() - x[k].real() * ltf[k].imag();
    }
    return std::hypot(static_cast<long double>(cr),
                      static_cast<long double>(ci));
  };
  double energy_ratio = 0.0;
  double corr_ratio = 0.0;
  std::size_t checked = 0;
  for (int c = 0; c < 4; ++c) {
    Rng rng(Rng::ForTrial(46, static_cast<std::uint64_t>(c), 0));
    IqBuffer raw = RescanCapture(rng, c == 0 ? 800 : 60, c == 1 ? 45.0 : 20.0,
                                 0.0, 150);
    if (c == 1) raw.resize(raw.size() + 2000, Cplx{0.0, 0.0});
    const double scale = c == 2 ? 1e40 : c == 3 ? 1e-40 : 1.0;
    for (auto& x : raw) x *= scale;
    const std::size_t positions = raw.size() - kFftSize + 1;

    std::vector<double> re, im, energy;
    dsp::SplitComplex(raw, re, im);
    dsp::SlidingWindowEnergy64(re.data(), im.data(), positions, energy);
    std::vector<long double> exact(positions);
    long double prefix = 0.0L;
    for (std::size_t j = 0; j + 1 < kFftSize; ++j) prefix += std::norm(LCplx(raw[j]));
    for (std::size_t n = 0; n < positions; ++n) {
      prefix += std::norm(LCplx(raw[n + kFftSize - 1]));
      long double e = 0.0L;
      for (std::size_t k = 0; k < kFftSize; ++k) e += std::norm(LCplx(raw[n + k]));
      exact[n] = e;
      const double err = static_cast<double>(
          std::abs(static_cast<long double>(energy[n]) - e) / prefix);
      energy_ratio = std::max(energy_ratio, err / kRescanEnergyAllowance);
    }

    for (const double cfo : {5e3, 80e3, -200e3}) {
      IqBuffer mixed;
      dsp::MixFrequencyInto(raw, -cfo, kSampleRateHz, 0.0, mixed);
      const double dphi = kTwoPi * -cfo / kSampleRateHz;
      const long double step = std::atan2(static_cast<long double>(std::sin(dphi)),
                                          static_cast<long double>(std::cos(dphi)));
      std::vector<LCplx> rotated(raw.size());
      for (std::size_t m = 0; m < raw.size(); ++m) {
        const long double phase = step * static_cast<long double>(m);
        rotated[m] = LCplx(raw[m]) * LCplx(std::cos(phase), std::sin(phase));
      }
      for (std::size_t n = 0; n < positions; ++n) {
        if (exact[n] == 0.0L) continue;
        LCplx c1 = 0.0L;
        LCplx c2 = 0.0L;
        for (std::size_t k = 0; k < kFftSize; ++k) {
          const LCplx p = std::conj(LCplx(ltf[k]));
          c1 += LCplx(raw[n + k]) * p;
          c2 += rotated[n + k] * p;
        }
        const long double err = std::abs(chain(raw.data() + n) - std::abs(c1)) +
                                std::abs(chain(mixed.data() + n) - std::abs(c2));
        const double ratio =
            static_cast<double>(err / std::sqrt(exact[n] * ltf_energy));
        corr_ratio = std::max(corr_ratio, ratio / kRescanCorrAllowance);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, std::size_t{50000});
  EXPECT_LT(energy_ratio, 1e-3) << "energy error / allowance";
  EXPECT_LT(corr_ratio, 1e-3) << "correlation error / allowance";
  // The relative allowance covers a few dozen roundings (each <= 2^-53)
  // in the normalizations and the bound; docs/phy_fast_path.md counts
  // them.
  EXPECT_GE(kRescanRelAllowance, 1e3 * 128 * std::ldexp(1.0, -53));
}

}  // namespace
}  // namespace freerider::phy80211
