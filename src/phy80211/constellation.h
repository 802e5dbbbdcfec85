// Constellation mapping/demapping for 802.11 OFDM (clause 17.3.5.8):
// gray-coded BPSK, QPSK, 16-QAM, 64-QAM with the standard normalization
// factors so all modulations have unit average power.
//
// The codeword-translation property lives here: rotating any of these
// constellations by 180° maps every point to another *valid* point, so a
// tag phase flip keeps the signal inside the codebook (paper §2.3.1).
#pragma once

#include <span>

#include "common/types.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {

/// Bits per symbol for a modulation.
std::size_t BitsPerSymbol(Modulation mod);

/// Map `bits` (length = multiple of BitsPerSymbol) to unit-average-power
/// constellation points.
IqBuffer MapBits(std::span<const Bit> bits, Modulation mod);

/// Hard-decision demap: nearest constellation point per symbol.
BitVector DemapSymbols(std::span<const Cplx> symbols, Modulation mod);

/// Allocation-free variants for the RX fast path; `out` is cleared and
/// refilled, so a warm vector makes these allocation-free.
void MapBitsInto(std::span<const Bit> bits, Modulation mod, IqBuffer& out);
void DemapSymbolsInto(std::span<const Cplx> symbols, Modulation mod,
                      BitVector& out);

/// Nearest constellation point of each symbol, into `out` (resized):
/// out[i] equals MapBits(DemapSymbols(symbols[i])) bit for bit — the
/// same slicers and levels, without the bits in between (so NaN
/// coordinates land where the demapper sends them).
void NearestPointsInto(std::span<const Cplx> symbols, Modulation mod,
                       IqBuffer& out);

/// Soft demap: one log-likelihood-ratio-style metric per coded bit
/// (max-log approximation for the gray-coded QAMs). Positive values
/// favour bit 1; magnitude is confidence. Feed to ViterbiDecodeSoft.
/// `out` is cleared and refilled.
void DemapSoftInto(std::span<const Cplx> symbols, Modulation mod,
                   std::vector<double>& out);

/// True iff `point` is within `tolerance` (Euclidean) of some valid
/// constellation point — the "valid codeword" membership test used by
/// the Fig. 2 invalid-codeword demonstration.
bool IsValidConstellationPoint(Cplx point, Modulation mod, double tolerance);

}  // namespace freerider::phy80211
