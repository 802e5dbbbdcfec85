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

// Coherently demodulates `num_chips` chips from `start` after
// derotating by `theta`. Only the samples DemodulateChips reads are
// rotated, into `locked`; the product is per sample, so the chips equal
// those of a whole-capture RotatePhase.
BitVector DemodulateLocked(std::span<const Cplx> rx, std::size_t start,
                           std::size_t num_chips, double theta,
                           IqBuffer& locked) {
  const std::size_t end =
      std::min(rx.size(), start + WaveformLength(num_chips));
  const std::size_t from = std::min(start, end);
  dsp::RotatePhaseInto(rx.subspan(from, end - from), theta, locked);
  return DemodulateChips(locked, 0, num_chips);
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
  if (rx.size() < kShrRefSamples + kSamplesPerSymbol) return result;

  // Normalized cross-correlation against the SHR tail.
  const ShrPeak peak = FindShr(rx, config.detection_threshold);
  if (peak.ncorr < config.detection_threshold) return result;
  result.detected = true;
  const std::size_t best_pos = peak.position;
  result.start_index = best_pos;

  // Phase lock: derotate by the correlation phase.
  const double theta = -std::arg(peak.corr);
  thread_local IqBuffer locked;

  // PHR starts right after the SFD. The detection reference covers 4
  // symbols; its start is 2 preamble symbols before the SFD.
  const std::size_t phr_start = best_pos + 4 * kSamplesPerSymbol;

  // Decode PHR (2 symbols = 1 byte).
  const BitVector phr_chips =
      DemodulateLocked(rx, phr_start, 2 * kChipsPerSymbol, theta, locked);
  if (phr_chips.size() < 2 * kChipsPerSymbol) return result;
  std::vector<std::uint8_t> symbols;
  double chip_distance_sum = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    const DespreadResult d = DespreadChips(
        std::span<const Bit>(phr_chips).subspan(s * kChipsPerSymbol,
                                                kChipsPerSymbol));
    symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  const std::size_t psdu_len = SymbolsToBytes(symbols)[0] & 0x7Fu;
  if (psdu_len < 2 || psdu_len > kMaxPsduBytes) return result;
  result.psdu_len = psdu_len;

  // Decode PSDU symbols.
  const std::size_t psdu_symbols = psdu_len * 2;
  const std::size_t psdu_start = phr_start + 2 * kSamplesPerSymbol;
  const BitVector chips = DemodulateLocked(
      rx, psdu_start, psdu_symbols * kChipsPerSymbol, theta, locked);
  if (chips.size() < psdu_symbols * kChipsPerSymbol) return result;
  std::vector<std::uint8_t> payload_symbols;
  for (std::size_t s = 0; s < psdu_symbols; ++s) {
    const DespreadResult d = DespreadChips(std::span<const Bit>(chips).subspan(
        s * kChipsPerSymbol, kChipsPerSymbol));
    payload_symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  result.psdu = SymbolsToBytes(payload_symbols);
  result.data_symbols = symbols;
  result.data_symbols.insert(result.data_symbols.end(), payload_symbols.begin(),
                             payload_symbols.end());
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
  return result;
}

}  // namespace freerider::phy802154
