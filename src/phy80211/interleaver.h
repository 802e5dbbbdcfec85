// 802.11 block interleaver (clause 17.3.5.7): operates on one OFDM
// symbol's worth of coded bits (N_CBPS) at a time. Because interleaving
// never crosses a symbol boundary, a tag bit that spans whole OFDM
// symbols survives it intact — the observation of paper §3.2.1.
#pragma once

#include <span>

#include "common/types.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {

/// Interleave one symbol's coded bits. `bits.size()` must equal the
/// rate's N_CBPS.
BitVector InterleaveSymbol(std::span<const Bit> bits, const RateParams& rate);

/// Interleave a multi-symbol stream whose length is a multiple of
/// N_CBPS.
BitVector InterleaveStream(std::span<const Bit> bits, const RateParams& rate);

/// Allocation-free InterleaveStream: one pass over the whole stream
/// (`out` must not alias `bits`; it is resized to `bits.size()`).
void InterleaveStreamInto(std::span<const Bit> bits, const RateParams& rate,
                          BitVector& out);

/// The inverse permutation of one symbol, allocation-free for the RX
/// fast path (`out` must not alias the input; it is resized to N_CBPS).
/// The soft form deinterleaves one symbol of soft metrics with the same
/// permutation as the bits.
void DeinterleaveSymbolInto(std::span<const Bit> bits, const RateParams& rate,
                            BitVector& out);
void DeinterleaveSymbolSoftInto(std::span<const double> values,
                                const RateParams& rate,
                                std::vector<double>& out);

}  // namespace freerider::phy80211
