#include "phy80211/receiver.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/crc.h"
#include "dsp/fft.h"
#include "dsp/signal_ops.h"
#include "dsp/workspace.h"
#include "phy80211/constellation.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/scrambler.h"
#include "phy80211/sync.h"

namespace freerider::phy80211 {
namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

/// Decision-directed residual-phase tracker: first-order loop updated
/// from the mean rotation of equalized points against their nearest
/// constellation points. Symmetric under the constellation's rotational
/// symmetry group, hence transparent to the tag's codeword translation.
/// The hard-decision round trip runs in ws scratch.
class PhaseTracker {
 public:
  PhaseTracker(bool enabled, Modulation mod, dsp::Workspace& ws)
      : enabled_(enabled), mod_(mod), ws_(ws) {}

  void Apply(IqBuffer& points) {
    if (!enabled_) return;
    const Cplx derot{std::cos(-phase_), std::sin(-phase_)};
    for (auto& p : points) p *= derot;
    // Residual rotation against hard decisions.
    Cplx acc{0.0, 0.0};
    DemapSymbolsInto(points, mod_, ws_.sym_hard);
    MapBitsInto(ws_.sym_hard, mod_, ws_.sym_ref);
    for (std::size_t i = 0; i < points.size(); ++i) {
      acc += points[i] * std::conj(ws_.sym_ref[i]);
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
  dsp::Workspace& ws_;
  double phase_ = 0.0;
};

/// Equalized data-subcarrier points of one symbol, left in ws.sym_data.
void DemodSymbolPointsWs(std::span<const Cplx> symbol80,
                         std::span<const Cplx> channel,
                         std::size_t symbol_index, const RxConfig& config,
                         IqBuffer* constellation_out, PhaseTracker* tracker,
                         dsp::Workspace& ws) {
  DemodulateSymbolInto(symbol80, ws.sym_bins);
  ExtractDataSubcarriersInto(ws.sym_bins, channel, ws.sym_data);
  if (config.pilot_phase_correction) {
    const double cpe = PilotPhaseError(ws.sym_bins, channel, symbol_index);
    const Cplx derot{std::cos(-cpe), std::sin(-cpe)};
    for (auto& x : ws.sym_data) x *= derot;
  }
  if (tracker != nullptr) tracker->Apply(ws.sym_data);
  if (constellation_out != nullptr) {
    constellation_out->insert(constellation_out->end(), ws.sym_data.begin(),
                              ws.sym_data.end());
  }
}

/// Decode one symbol's worth of interleaved coded bits (hard decision)
/// into `out`.
void DemodSymbolBitsWs(std::span<const Cplx> symbol80,
                       std::span<const Cplx> channel, const RateParams& params,
                       std::size_t symbol_index, const RxConfig& config,
                       dsp::Workspace& ws, BitVector& out) {
  DemodSymbolPointsWs(symbol80, channel, symbol_index, config, nullptr,
                      nullptr, ws);
  DemapSymbolsInto(ws.sym_data, params.modulation, ws.sym_hard);
  DeinterleaveSymbolInto(ws.sym_hard, params, out);
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

/// Reset an RxResult to its default-constructed values while keeping
/// the capacity of its vectors (so reuse across frames is alloc-free).
void ResetResult(RxResult& r) {
  r.detected = false;
  r.signal_ok = false;
  r.fcs_ok = false;
  r.rate = Rate::k6Mbps;
  r.psdu_len = 0;
  r.psdu.clear();
  r.data_bits.clear();
  r.num_data_symbols = 0;
  r.scrambler_seed = 0;
  r.rssi_dbm = -300.0;
  r.start_index = 0;
  r.cfo_hz = 0.0;
  r.constellation.clear();
}

}  // namespace

// ---------------------------------------------------------------------------
// Allocation-free receive chain. Stage for stage it performs the
// arithmetic of the scalar reference chain (the oracle in
// tests/phy_fastpath_test.cpp) in the same order; the only intentional
// differences are the vectorized preamble scan and, after CFO
// correction, its certified filter-and-refine form, whose integer
// Detection outputs the equivalence suite pins to the scalar scan.
// Every temporary lives in `ws`; `result`'s vectors are cleared and
// refilled, so a warm workspace + reused result decode a frame with zero
// heap allocations (BM_WifiRx400B and BM_WifiRx800B report the counter).
// ---------------------------------------------------------------------------

void ReceiveFrame(const IqBuffer& raw_rx, const RxConfig& config,
                  dsp::Workspace& ws, RxResult& result) {
  ResetResult(result);

  Detection det = DetectPreambleFast(raw_rx, config.detection_threshold, ws);
  if (!det.found) return;
  result.detected = true;
  result.start_index = det.second_ltf_start - 64;

  // CFO estimation and correction on the preamble, then re-detect for
  // exact timing on the corrected buffer.
  std::span<const Cplx> rx = raw_rx;
  if (config.cfo_correction) {
    IqBuffer& mixed = ws.rx_work;
    double cfo = 0.0;
    std::span<const Cplx> ltf_region =
        rx.subspan(result.start_index, 2 * kFftSize);
    // Coarse: STF region (160 samples ending 160 before the LTF). Only
    // the LTF region is read before the fine mix rewrites the buffer, so
    // only the prefix up to it is mixed; the oscillator runs from
    // sample 0 either way, so those samples are the whole mix's.
    if (result.start_index >= 192) {
      cfo += EstimateCfoHz(rx.subspan(result.start_index - 184, 144), 16);
      dsp::MixFrequencyInto(rx.first(result.start_index + 2 * kFftSize), -cfo,
                            kSampleRateHz, 0.0, mixed);
      ltf_region =
          std::span<const Cplx>(mixed).subspan(result.start_index, 2 * kFftSize);
    }
    // Fine: the two LTF symbols, period 64.
    cfo += EstimateCfoHz(ltf_region, 64);
    dsp::MixFrequencyInto(raw_rx, -cfo, kSampleRateHz, 0.0, mixed);
    result.cfo_hz = cfo;
    det = DetectPreambleAfterMix(mixed, cfo, det, config.detection_threshold,
                                 ws);
    if (!det.found) return;
    result.start_index = det.second_ltf_start - 64;
    rx = mixed;
  }

  // Channel estimation over both long training symbols.
  ws.chan.assign(kFftSize, Cplx{0.0, 0.0});
  {
    ws.ltf_y1.assign(
        rx.begin() + static_cast<std::ptrdiff_t>(result.start_index),
        rx.begin() + static_cast<std::ptrdiff_t>(result.start_index) + 64);
    ws.ltf_y2.assign(
        rx.begin() + static_cast<std::ptrdiff_t>(det.second_ltf_start),
        rx.begin() + static_cast<std::ptrdiff_t>(det.second_ltf_start) + 64);
    dsp::Fft(ws.ltf_y1);
    dsp::Fft(ws.ltf_y2);
    for (int s = -26; s <= 26; ++s) {
      const Cplx l = LtfSymbolAt(s);
      if (std::norm(l) < 0.5) continue;
      const std::size_t bin = BinIndex(s);
      // H absorbs the TX time-domain scale and the channel gain, so
      // equalized data points land on the unit constellation grid.
      ws.chan[bin] = 0.5 * (ws.ltf_y1[bin] + ws.ltf_y2[bin]) / l;
    }
  }

  // SIGNAL symbol.
  const std::size_t signal_start = det.second_ltf_start + 64;
  if (signal_start + kSymbolLen > rx.size()) return;
  DemodSymbolBitsWs(std::span<const Cplx>(rx).subspan(signal_start, kSymbolLen),
                    ws.chan, ParamsFor(Rate::k6Mbps), 0, RxConfig{}, ws,
                    ws.sym_deint);
  ViterbiDecodeInto(ws.sym_deint, ws.vit_decisions, ws.decoded);
  const SignalInfo info = ParseSignal(ws.decoded);
  if (!info.ok) return;
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
    return;
  }

  // RSSI over the frame extent.
  result.rssi_dbm = dsp::PowerDbm(std::span<const Cplx>(rx).subspan(
      result.start_index,
      data_start + num_symbols * kSymbolLen - result.start_index));

  // Demodulate all data symbols, then depuncture and Viterbi-decode
  // (hard or soft per the configuration).
  const std::size_t info_bits = num_symbols * params.data_bits_per_symbol;
  IqBuffer* constellation =
      config.collect_constellation ? &result.constellation : nullptr;
  PhaseTracker tracker(config.decision_directed_tracking, params.modulation,
                       ws);
  if (config.soft_decision) {
    ws.soft_coded.clear();
    ws.soft_coded.reserve(num_symbols * params.coded_bits_per_symbol);
    for (std::size_t s = 0; s < num_symbols; ++s) {
      DemodSymbolPointsWs(
          std::span<const Cplx>(rx).subspan(data_start + s * kSymbolLen,
                                            kSymbolLen),
          ws.chan, s + 1, config, constellation, &tracker, ws);
      DemapSoftInto(ws.sym_data, params.modulation, ws.sym_llrs);
      DeinterleaveSymbolSoftInto(ws.sym_llrs, params, ws.sym_soft_deint);
      ws.soft_coded.insert(ws.soft_coded.end(), ws.sym_soft_deint.begin(),
                           ws.sym_soft_deint.end());
    }
    DepunctureSoftInto(ws.soft_coded, params.coding, info_bits * 2,
                       ws.soft_mother);
    ViterbiDecodeSoftInto(ws.soft_mother, ws.vit_decisions, ws.decoded);
  } else {
    ws.coded.clear();
    ws.coded.reserve(num_symbols * params.coded_bits_per_symbol);
    for (std::size_t s = 0; s < num_symbols; ++s) {
      DemodSymbolPointsWs(
          std::span<const Cplx>(rx).subspan(data_start + s * kSymbolLen,
                                            kSymbolLen),
          ws.chan, s + 1, config, constellation, &tracker, ws);
      DemapSymbolsInto(ws.sym_data, params.modulation, ws.sym_hard);
      DeinterleaveSymbolInto(ws.sym_hard, params, ws.sym_deint);
      ws.coded.insert(ws.coded.end(), ws.sym_deint.begin(), ws.sym_deint.end());
    }
    DepunctureInto(ws.coded, params.coding, info_bits * 2, ws.mother);
    ViterbiDecodeInto(ws.mother, ws.vit_decisions, ws.decoded);
  }
  const BitVector& scrambled = ws.decoded;

  result.scrambler_seed =
      RecoverScramblerSeed(std::span<const Bit>(scrambled).subspan(0, 7));
  if (result.scrambler_seed == 0) {
    // SERVICE corrupted beyond seed recovery; return raw bits unscrambled.
    result.data_bits = scrambled;
    return;
  }
  Scrambler descrambler(result.scrambler_seed);
  descrambler.ProcessInto(scrambled, result.data_bits);

  // Zero the (known-zero) tail bits so streams compare cleanly.
  const std::size_t tail_pos = kServiceBits + info.length * 8;
  for (std::size_t i = 0;
       i < kTailBits && tail_pos + i < result.data_bits.size(); ++i) {
    result.data_bits[tail_pos + i] = 0;
  }

  // Extract PSDU and check FCS.
  BitsToBytesInto(std::span<const Bit>(result.data_bits)
                      .subspan(kServiceBits, info.length * 8),
                  result.psdu);
  if (info.length >= 5) {
    std::uint32_t fcs = 0;
    for (int i = 0; i < 4; ++i) {
      fcs |= static_cast<std::uint32_t>(result.psdu[info.length - 4 + i])
             << (8 * i);
    }
    const std::uint32_t computed = Crc32(
        std::span<const std::uint8_t>(result.psdu).subspan(0, info.length - 4));
    result.fcs_ok = (fcs == computed);
  }
}

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config) {
  RxResult result;
  ReceiveFrame(rx, config, dsp::ThreadLocalWorkspace(), result);
  return result;
}

}  // namespace freerider::phy80211
