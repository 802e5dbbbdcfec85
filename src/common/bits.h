// Bit/byte conversion helpers used by every PHY.
//
// Bit order convention: LSB-first within a byte, matching the order in
// which 802.11, 802.15.4 and BLE serialize octets onto the air.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/types.h"

namespace freerider {

/// Expand bytes into bits, LSB of each byte first.
BitVector BytesToBits(std::span<const std::uint8_t> bytes);

/// Pack bits (LSB-first per byte) into bytes. The bit count need not be a
/// multiple of 8; the final partial byte is zero-padded in its high bits.
Bytes BitsToBytes(std::span<const Bit> bits);

/// Allocation-free BitsToBytes: `out` is resized and refilled, so a warm
/// vector makes repeated packing allocation-free.
void BitsToBytesInto(std::span<const Bit> bits, Bytes& out);

/// Append the low `count` (at most 32) bits of `value`, LSB first: the
/// order of the PLM downlink fields and of the PHY header fields.
void AppendBitsLsbFirst(BitVector& out, std::uint32_t value,
                        std::size_t count);

/// Read a `count`-bit (at most 32) LSB-first field at `offset`. Only each
/// cell's LSB counts: a cell is a byte, and a corrupted producer can
/// hand over values > 1 that must not smear into the upper bits.
std::uint32_t ReadBitsLsbFirst(std::span<const Bit> bits, std::size_t offset,
                               std::size_t count);

/// Parse a string of '0'/'1' characters into bits. Any other character
/// (spaces etc.) is skipped, so "1010 1100" is accepted.
BitVector BitsFromString(std::string_view s);

/// Render bits as a '0'/'1' string (diagnostics and tests).
std::string BitsToString(std::span<const Bit> bits);

/// Number of positions at which the two spans differ, compared over the
/// shorter length. Used for BER computation everywhere.
std::size_t HammingDistance(std::span<const Bit> a, std::span<const Bit> b);

/// XOR two equal-length bit vectors; the heart of the Table 1 decode.
BitVector XorBits(std::span<const Bit> a, std::span<const Bit> b);

/// Repeat each bit `n` times (the redundancy encoder's inner primitive).
BitVector RepeatBits(std::span<const Bit> bits, std::size_t n);

/// Bit error rate between a and b over the shorter length; returns 1.0
/// when either input is empty (a lost packet counts as all-wrong).
double BitErrorRate(std::span<const Bit> a, std::span<const Bit> b);

}  // namespace freerider
