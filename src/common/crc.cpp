#include "common/crc.h"

#include <array>

namespace freerider {
namespace {

std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& Crc32Table() {
  static const std::array<std::uint32_t, 256> table = MakeCrc32Table();
  return table;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  const auto& table = Crc32Table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint16_t Crc16Ccitt(std::span<const std::uint8_t> data) {
  // 802.15.4 FCS: polynomial x^16 + x^12 + x^5 + 1, bit-reversed
  // implementation (LSB-first), init 0.
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? static_cast<std::uint16_t>((crc >> 1) ^ 0x8408u)
                       : static_cast<std::uint16_t>(crc >> 1);
    }
  }
  return crc;
}

std::uint32_t Crc24Ble(std::span<const Bit> bits, std::uint32_t init) {
  // BLE CRC: polynomial x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1.
  // LFSR shifted once per PDU bit, LSB of the register first on air.
  std::uint32_t lfsr = init & 0xFFFFFFu;
  for (Bit b : bits) {
    const std::uint32_t fb = (b ^ (lfsr >> 23)) & 1u;
    lfsr = (lfsr << 1) & 0xFFFFFFu;
    if (fb) lfsr ^= 0x00065Bu;
  }
  return lfsr;
}

std::uint8_t Crc8(std::span<const Bit> bits) {
  std::uint8_t crc = 0;
  for (Bit b : bits) {
    const bool msb = (crc & 0x80u) != 0;
    crc = static_cast<std::uint8_t>((crc << 1) | (b & 1u));
    if (msb) crc ^= 0x07u;
  }
  // Flush the 8-bit register so trailing bits affect the result.
  for (int i = 0; i < 8; ++i) {
    const bool msb = (crc & 0x80u) != 0;
    crc = static_cast<std::uint8_t>(crc << 1);
    if (msb) crc ^= 0x07u;
  }
  return crc;
}

}  // namespace freerider
