#include "phy802154/frame.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/crc.h"
#include "dsp/signal_ops.h"
#include "phy802154/chips.h"
#include "phy802154/oqpsk.h"
#include "phy802154/shr.h"

namespace freerider::phy802154 {
namespace {

std::vector<std::uint8_t> ShrSymbols() {
  std::vector<std::uint8_t> symbols(kPreambleSymbols, 0);
  // SFD = 0xA7, low nibble first.
  symbols.push_back(0x7);
  symbols.push_back(0xA);
  return symbols;
}

// Decoder scratch, per thread: the phase-locked samples, the chips,
// the decoded symbols (PHR then PSDU) and the PHR byte.
struct RxScratch {
  IqBuffer locked;
  BitVector chips;
  std::vector<std::uint8_t> symbols;
  Bytes phr;
};

RxScratch& ThreadLocalRxScratch() {
  thread_local RxScratch scratch;
  return scratch;
}

// Coherently demodulates `num_chips` chips from `start` after
// derotating by `theta`, into `scratch.chips`. Only the samples
// DemodulateChipsInto reads are rotated, into `scratch.locked`; the
// product is per sample, so the chips equal those of a whole-capture
// RotatePhase.
void DemodulateLocked(std::span<const Cplx> rx, std::size_t start,
                      std::size_t num_chips, double theta,
                      RxScratch& scratch) {
  const std::size_t end =
      std::min(rx.size(), start + WaveformLength(num_chips));
  const std::size_t from = std::min(start, end);
  dsp::RotatePhaseInto(rx.subspan(from, end - from), theta, scratch.locked);
  DemodulateChipsInto(scratch.locked, 0, num_chips, scratch.chips);
}

// Appends the despread symbols of scratch.chips to scratch.symbols and
// adds their chip distances to `distance_sum`, symbol by symbol.
void DespreadInto(RxScratch& scratch, double& distance_sum) {
  const std::span<const Bit> chips = scratch.chips;
  for (std::size_t s = 0; s + kChipsPerSymbol <= chips.size();
       s += kChipsPerSymbol) {
    const DespreadResult d = DespreadChips(chips.subspan(s, kChipsPerSymbol));
    scratch.symbols.push_back(d.symbol);
    distance_sum += d.distance;
  }
}

void ResetResult(RxResult& r) {
  r.detected = false;
  r.fcs_ok = false;
  r.psdu_len = 0;
  r.psdu.clear();
  r.data_symbols.clear();
  r.mean_chip_distance = 0.0;
  r.rssi_dbm = -300.0;
  r.start_index = 0;
}

}  // namespace

TxFrame BuildFrame(std::span<const std::uint8_t> payload) {
  TxFrame frame;
  BuildFrameInto(payload, frame);
  return frame;
}

void BuildFrameInto(std::span<const std::uint8_t> payload, TxFrame& frame) {
  if (payload.size() + 2 > kMaxPsduBytes) {
    throw std::invalid_argument("802.15.4 payload too large");
  }
  frame.psdu.assign(payload.begin(), payload.end());
  const std::uint16_t fcs = Crc16Ccitt(payload);
  frame.psdu.push_back(static_cast<std::uint8_t>(fcs & 0xFFu));
  frame.psdu.push_back(static_cast<std::uint8_t>((fcs >> 8) & 0xFFu));

  std::vector<std::uint8_t> symbols = ShrSymbols();
  const std::size_t shr_count = symbols.size();

  Bytes phr_and_psdu;
  phr_and_psdu.push_back(static_cast<std::uint8_t>(frame.psdu.size() & 0x7Fu));
  phr_and_psdu.insert(phr_and_psdu.end(), frame.psdu.begin(), frame.psdu.end());
  frame.data_symbols = BytesToSymbols(phr_and_psdu);
  symbols.insert(symbols.end(), frame.data_symbols.begin(),
                 frame.data_symbols.end());

  ModulateChipsInto(SpreadSymbols(symbols), frame.waveform);
  frame.shr_samples = shr_count * kSamplesPerSymbol;
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config) {
  RxResult result;
  ReceiveFrame(rx, config, result);
  return result;
}

void ReceiveFrame(const IqBuffer& rx, const RxConfig& config,
                  RxResult& result) {
  ResetResult(result);
  if (rx.size() < kShrRefSamples + kSamplesPerSymbol) return;

  // Normalized cross-correlation against the SHR tail.
  const ShrPeak peak = FindShr(rx, config.detection_threshold);
  if (peak.ncorr < config.detection_threshold) return;
  result.detected = true;
  const std::size_t best_pos = peak.position;
  result.start_index = best_pos;

  // Phase lock: derotate by the correlation phase.
  const double theta = -std::arg(peak.corr);
  RxScratch& scratch = ThreadLocalRxScratch();
  scratch.symbols.clear();

  // PHR starts right after the SFD. The detection reference covers 4
  // symbols; its start is 2 preamble symbols before the SFD.
  const std::size_t phr_start = best_pos + 4 * kSamplesPerSymbol;

  // Decode PHR (2 symbols = 1 byte).
  DemodulateLocked(rx, phr_start, 2 * kChipsPerSymbol, theta, scratch);
  if (scratch.chips.size() < 2 * kChipsPerSymbol) return;
  double chip_distance_sum = 0.0;
  DespreadInto(scratch, chip_distance_sum);
  SymbolsToBytesInto(scratch.symbols, scratch.phr);
  const std::size_t psdu_len = scratch.phr[0] & 0x7Fu;
  if (psdu_len < 2 || psdu_len > kMaxPsduBytes) return;
  result.psdu_len = psdu_len;

  // Decode PSDU symbols.
  const std::size_t psdu_symbols = psdu_len * 2;
  const std::size_t psdu_start = phr_start + 2 * kSamplesPerSymbol;
  DemodulateLocked(rx, psdu_start, psdu_symbols * kChipsPerSymbol, theta,
                   scratch);
  if (scratch.chips.size() < psdu_symbols * kChipsPerSymbol) return;
  DespreadInto(scratch, chip_distance_sum);
  const std::span<const std::uint8_t> symbols = scratch.symbols;
  SymbolsToBytesInto(symbols.subspan(2), result.psdu);
  result.data_symbols.assign(symbols.begin(), symbols.end());
  result.mean_chip_distance =
      chip_distance_sum / static_cast<double>(2 + psdu_symbols);

  // RSSI over the frame extent.
  const std::size_t frame_end =
      std::min(rx.size(), psdu_start + psdu_symbols * kSamplesPerSymbol);
  result.rssi_dbm = dsp::PowerDbm(
      std::span<const Cplx>(rx).subspan(best_pos, frame_end - best_pos));

  // FCS check.
  if (result.psdu.size() >= 2) {
    const std::uint16_t fcs = static_cast<std::uint16_t>(
        result.psdu[result.psdu.size() - 2] |
        (result.psdu[result.psdu.size() - 1] << 8));
    const std::uint16_t computed = Crc16Ccitt(std::span<const std::uint8_t>(
        result.psdu.data(), result.psdu.size() - 2));
    result.fcs_ok = (fcs == computed);
  }
}

}  // namespace freerider::phy802154
