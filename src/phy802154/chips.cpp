#include "phy802154/chips.h"

#include <bit>
#include <stdexcept>

#include "dsp/kernels.h"
#include "phy802154/params.h"

namespace freerider::phy802154 {
namespace {

// Base sequence for symbol 0 (Table 12-1). Symbols 1..7 are cyclic
// right-shifts by 4k chips; symbols 8..15 invert the odd-indexed (Q)
// chips of symbols 0..7.
constexpr ChipSequence kC0 = {1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
                              0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0};

std::array<ChipSequence, 16> BuildTable() {
  std::array<ChipSequence, 16> table{};
  ChipSequence conj{};
  for (std::size_t i = 0; i < 32; ++i) {
    conj[i] = (i % 2 == 1) ? static_cast<Bit>(kC0[i] ^ 1u) : kC0[i];
  }
  for (std::uint8_t s = 0; s < 8; ++s) {
    for (std::size_t i = 0; i < 32; ++i) {
      // Cyclic right shift by 4s.
      table[s][(i + 4 * s) % 32] = kC0[i];
      table[s + 8][(i + 4 * s) % 32] = conj[i];
    }
  }
  return table;
}

const std::array<ChipSequence, 16>& Table() {
  static const std::array<ChipSequence, 16> table = BuildTable();
  return table;
}

// Each 32-chip sequence packed into one word (chip i -> bit i) so the
// despreader is a XOR + popcount per candidate instead of a 32-iteration
// compare loop — exact integer arithmetic, same distances as the scalar
// loop by construction.
const std::array<std::uint32_t, 16>& PackedTable() {
  static const std::array<std::uint32_t, 16> packed = [] {
    std::array<std::uint32_t, 16> p{};
    for (std::size_t s = 0; s < 16; ++s) p[s] = dsp::PackBits32(Table()[s]);
    return p;
  }();
  return packed;
}

}  // namespace

const ChipSequence& ChipsForSymbol(std::uint8_t symbol) {
  if (symbol >= 16) throw std::invalid_argument("symbol must be 0..15");
  return Table()[symbol];
}

BitVector SpreadSymbols(std::span<const std::uint8_t> symbols) {
  BitVector chips;
  chips.reserve(symbols.size() * kChipsPerSymbol);
  for (std::uint8_t s : symbols) {
    const ChipSequence& seq = ChipsForSymbol(s);
    chips.insert(chips.end(), seq.begin(), seq.end());
  }
  return chips;
}

DespreadResult DespreadChips(std::span<const Bit> chips32) {
  if (chips32.size() != kChipsPerSymbol) {
    throw std::invalid_argument("DespreadChips: need exactly 32 chips");
  }
  const std::uint32_t packed = dsp::PackBits32(chips32);
  const auto& table = PackedTable();
  // Strict < keeps the lowest-numbered symbol on ties, matching the
  // original ascending-s scan.
  DespreadResult best{0, 33};
  for (std::uint8_t s = 0; s < 16; ++s) {
    const auto d =
        static_cast<std::uint8_t>(std::popcount(packed ^ table[s]));
    if (d < best.distance) best = {s, d};
  }
  return best;
}

std::vector<std::uint8_t> BytesToSymbols(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> symbols;
  symbols.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    symbols.push_back(b & 0x0Fu);
    symbols.push_back((b >> 4) & 0x0Fu);
  }
  return symbols;
}

void SymbolsToBytesInto(std::span<const std::uint8_t> symbols, Bytes& bytes) {
  if (symbols.size() % 2 != 0) {
    throw std::invalid_argument("SymbolsToBytesInto: odd symbol count");
  }
  bytes.clear();
  bytes.reserve(symbols.size() / 2);
  for (std::size_t i = 0; i < symbols.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>((symbols[i] & 0x0F) |
                                              ((symbols[i + 1] & 0x0F) << 4)));
  }
}

std::uint8_t TranslatedSymbol(std::uint8_t symbol) {
  const ChipSequence& seq = ChipsForSymbol(symbol);
  BitVector inverted(seq.begin(), seq.end());
  for (auto& c : inverted) c ^= 1;
  return DespreadChips(inverted).symbol;
}

}  // namespace freerider::phy802154
