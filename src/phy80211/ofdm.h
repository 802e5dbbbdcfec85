// OFDM symbol assembly/disassembly for 802.11a/g: 64-point FFT grid,
// 48 data subcarriers, 4 pilots with the 127-element polarity sequence,
// cyclic prefix, and the short/long training fields.
#pragma once

#include <array>
#include <span>

#include "common/types.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {

/// Data subcarrier indices in transmission order (-26..26, skipping
/// pilots and DC), 48 entries.
const std::array<int, kNumDataSubcarriers>& DataSubcarriers();

/// Pilot polarity p_n for symbol index n (the 127-periodic sequence of
/// clause 17.3.5.10). SIGNAL uses n = 0; data symbol i uses n = i + 1.
double PilotPolarity(std::size_t symbol_index);

/// Frequency-domain long-training sequence L_k for k in [-26, 26].
Cplx LtfSymbolAt(int subcarrier);

/// Build one 80-sample time-domain OFDM symbol (CP + 64-pt IFFT) from 48
/// data-subcarrier constellation points. `symbol_index` selects pilot
/// polarity (0 = SIGNAL). The IFFT runs in place on a stack array and
/// CP + symbol are written straight into `out` (80 samples).
void ModulateSymbolInto(std::span<const Cplx> data_points,
                        std::size_t symbol_index, std::span<Cplx> out);

/// FFT of the useful part of one received symbol (the 64 samples after
/// the CP): the 64 frequency bins in FFT order, written into `bins`
/// (reused scratch).
void DemodulateSymbolInto(std::span<const Cplx> symbol80, IqBuffer& bins);

/// Extract the 48 data-subcarrier values from 64 FFT bins into `out`,
/// equalized by `channel` (64 bins, FFT order; pass an empty span for no
/// equalization). `out` must not alias `bins`.
void ExtractDataSubcarriersInto(std::span<const Cplx> bins,
                                std::span<const Cplx> channel, IqBuffer& out);

/// Mean pilot-phase rotation of one demodulated symbol relative to the
/// expected pilot values — the common phase error a pilot-tracking
/// receiver would correct (and in doing so, erase the tag's data;
/// paper §3.2.1 "pilot tone" discussion).
double PilotPhaseError(std::span<const Cplx> bins, std::span<const Cplx> channel,
                       std::size_t symbol_index);

/// 160-sample short training field.
IqBuffer ShortTrainingField();

/// 160-sample long training field (32-sample GI + 2 x 64).
IqBuffer LongTrainingField();

/// The 64-sample time-domain long-training symbol (for correlation).
IqBuffer LongTrainingSymbol64();

/// FFT-order bin index for signed subcarrier s in [-32, 31].
constexpr std::size_t BinIndex(int subcarrier) {
  return static_cast<std::size_t>((subcarrier + 64) % 64);
}

}  // namespace freerider::phy80211
