// The 16 32-chip pseudo-noise sequences of the 802.15.4 O-QPSK PHY
// (Table 12-1) and the symbol-level spreading/despreading logic.
//
// Codeword-translation relevance: a tag's 180° phase flip inverts every
// chip. The inverted sequence is *not* in the codebook, but its nearest
// codeword (by Hamming distance) is a deterministic other symbol, so a
// coherent receiver maps flipped windows to a consistent "translated"
// symbol stream — with a smaller noise margin, which is why the paper's
// ZigBee BER (~5e-2) is higher than WiFi's.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/types.h"

namespace freerider::phy802154 {

using ChipSequence = std::array<Bit, 32>;

/// Chip sequence for data symbol 0..15.
const ChipSequence& ChipsForSymbol(std::uint8_t symbol);

/// Spread a symbol stream (values 0..15) into chips.
BitVector SpreadSymbols(std::span<const std::uint8_t> symbols);

/// Nearest symbol (min Hamming distance) for 32 hard chips, plus the
/// distance itself (0 = exact codeword).
struct DespreadResult {
  std::uint8_t symbol;
  std::uint8_t distance;
};
DespreadResult DespreadChips(std::span<const Bit> chips32);

/// Convert bytes to 4-bit symbols, low nibble first (clause 12.2.3).
std::vector<std::uint8_t> BytesToSymbols(std::span<const std::uint8_t> bytes);

/// Inverse of BytesToSymbols into a reused vector: `bytes` is cleared
/// and refilled. The symbol count must be even.
void SymbolsToBytesInto(std::span<const std::uint8_t> symbols, Bytes& bytes);

/// The deterministic symbol a coherent receiver decodes when a tag has
/// inverted all 32 chips of `symbol` — the translated codeword.
std::uint8_t TranslatedSymbol(std::uint8_t symbol);

}  // namespace freerider::phy802154
