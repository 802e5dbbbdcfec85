#include "common/bits.h"

#include <algorithm>

namespace freerider {

BitVector BytesToBits(std::span<const std::uint8_t> bytes) {
  BitVector bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t byte : bytes) {
    for (int i = 0; i < 8; ++i) {
      bits.push_back(static_cast<Bit>((byte >> i) & 1u));
    }
  }
  return bits;
}

Bytes BitsToBytes(std::span<const Bit> bits) {
  Bytes bytes;
  BitsToBytesInto(bits, bytes);
  return bytes;
}

void BitsToBytesInto(std::span<const Bit> bits, Bytes& out) {
  // Branchless: random data bits would mispredict a per-bit branch
  // about half the time. Any nonzero input sets its bit.
  out.resize((bits.size() + 7) / 8);
  const Bit* b = bits.data();
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::size_t count = std::min<std::size_t>(8, bits.size() - 8 * j);
    unsigned byte = 0;
    for (std::size_t k = 0; k < count; ++k) {
      byte |= static_cast<unsigned>(b[8 * j + k] != 0) << k;
    }
    out[j] = static_cast<std::uint8_t>(byte);
  }
}

void AppendBitsLsbFirst(BitVector& out, std::uint32_t value,
                        std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Bit>((value >> i) & 1u));
  }
}

std::uint32_t ReadBitsLsbFirst(std::span<const Bit> bits, std::size_t offset,
                               std::size_t count) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < count; ++i) {
    value |= static_cast<std::uint32_t>(bits[offset + i] & 1u) << i;
  }
  return value;
}

BitVector BitsFromString(std::string_view s) {
  BitVector bits;
  bits.reserve(s.size());
  for (char c : s) {
    if (c == '0') bits.push_back(0);
    else if (c == '1') bits.push_back(1);
  }
  return bits;
}

std::string BitsToString(std::span<const Bit> bits) {
  std::string s;
  s.reserve(bits.size());
  for (Bit b : bits) s.push_back(b ? '1' : '0');
  return s;
}

std::size_t HammingDistance(std::span<const Bit> a, std::span<const Bit> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < n; ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

BitVector XorBits(std::span<const Bit> a, std::span<const Bit> b) {
  const std::size_t n = std::min(a.size(), b.size());
  BitVector out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] ^ b[i];
  return out;
}

BitVector RepeatBits(std::span<const Bit> bits, std::size_t n) {
  BitVector out;
  out.reserve(bits.size() * n);
  for (Bit b : bits) out.insert(out.end(), n, b);
  return out;
}

double BitErrorRate(std::span<const Bit> a, std::span<const Bit> b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n == 0) return 1.0;
  return static_cast<double>(HammingDistance(a, b)) / static_cast<double>(n);
}

}  // namespace freerider
