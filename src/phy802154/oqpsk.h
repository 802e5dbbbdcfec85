// O-QPSK half-sine modulation and coherent demodulation for the
// 802.15.4 PHY: even chips ride the I rail, odd chips the Q rail,
// offset by one chip period, each shaped by a half-sine spanning two
// chip periods (MSK-equivalent).
#pragma once

#include <span>

#include "common/types.h"
#include "phy802154/params.h"

namespace freerider::phy802154 {

/// Modulate hard chips (0/1) to the complex baseband waveform at
/// kSampleRateHz. The waveform is normalized to ~unit mean power.
/// Chip count must be even.
IqBuffer ModulateChips(std::span<const Bit> chips);

/// Allocation-free ModulateChips: `out` is resized and fully rewritten.
void ModulateChipsInto(std::span<const Bit> chips, IqBuffer& out);

/// Number of output samples for n chips.
std::size_t WaveformLength(std::size_t num_chips);

/// Coherently demodulate hard chips from `rx` starting at sample
/// `start`, assuming the carrier phase has already been removed, into
/// `chips` (cleared and refilled). Stops early if the buffer runs out.
void DemodulateChipsInto(std::span<const Cplx> rx, std::size_t start,
                         std::size_t num_chips, BitVector& chips);

}  // namespace freerider::phy802154
