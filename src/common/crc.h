// CRCs used by the three commodity PHYs.
//
//  * CRC-32 (IEEE 802.3 polynomial) — the 802.11 FCS.
//  * CRC-16-CCITT (X.25 style)      — the 802.15.4 FCS.
//  * CRC-24 (poly 0x00065B)         — the BLE packet CRC.
//  * CRC-8 (poly 0x07)              — the PLM announcement extension.
//
// All operate on bit spans (LSB-first serialization order) so the PHYs
// can append the check sequence directly to the over-the-air bit stream.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"

namespace freerider {

/// IEEE CRC-32 over bytes (reflected, init 0xFFFFFFFF, final xor
/// 0xFFFFFFFF). This is the 802.11 frame check sequence.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

/// CRC-16-CCITT over bytes (init 0x0000) as used by the 802.15.4 FCS.
std::uint16_t Crc16Ccitt(std::span<const std::uint8_t> data);

/// BLE CRC-24. `init` is the CRC initial value from the connection setup
/// (0x555555 for advertising channels). Operates on a bit stream because
/// BLE computes the CRC over PDU bits in transmission order.
std::uint32_t Crc24Ble(std::span<const Bit> bits, std::uint32_t init = 0x555555);

/// CRC-8 (init 0, register flushed with 8 zero bits) over a bit stream
/// in transmission order; only each cell's LSB counts. It guards the
/// PLM announcement extension (mac/plm.h), so a corrupted downlink can
/// cost a round of feedback but never fabricate acknowledgements.
std::uint8_t Crc8(std::span<const Bit> bits);

}  // namespace freerider
