#include "mac/plm.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/crc.h"

namespace freerider::mac {
namespace {

constexpr std::size_t kPrefixBits = 16;
constexpr std::size_t kVersionBits = 4;
constexpr std::size_t kLengthBits = 8;
/// Where the length field and the body start.
constexpr std::size_t kLengthOffset = kPrefixBits + kVersionBits;
constexpr std::size_t kBodyOffset = kPrefixBits + kPlmExtHeaderBits;

}  // namespace

double PlmBitRateBps(const PlmConfig& config) {
  const double mean_bit_s = 0.5 * (config.l0_s + config.l1_s) + config.gap_s;
  return 1.0 / mean_bit_s;
}

std::vector<tag::AirPulse> EncodePlm(std::span<const Bit> bits, double start_s,
                                     double power_dbm, const PlmConfig& config) {
  std::vector<tag::AirPulse> pulses;
  pulses.reserve(bits.size());
  double t = start_s;
  for (Bit b : bits) {
    const double duration = b ? config.l1_s : config.l0_s;
    pulses.push_back({t, duration, power_dbm});
    t += duration + config.gap_s;
  }
  return pulses;
}

std::optional<Bit> ClassifyPulse(const tag::MeasuredPulse& pulse,
                                 const PlmConfig& config) {
  if (std::abs(pulse.duration_s - config.l0_s) <= config.tolerance_s) return 0;
  if (std::abs(pulse.duration_s - config.l1_s) <= config.tolerance_s) return 1;
  return std::nullopt;
}

BitVector DecodePlm(std::span<const tag::MeasuredPulse> pulses,
                    const PlmConfig& config) {
  BitVector bits;
  bits.reserve(pulses.size());
  for (const auto& p : pulses) {
    if (auto b = ClassifyPulse(p, config)) bits.push_back(*b);
  }
  return bits;
}

const BitVector& PlmPreamble() {
  static const BitVector preamble = BitsFromString("10110001");
  return preamble;
}

BitVector BuildPlmMessage(std::span<const Bit> payload) {
  BitVector message = PlmPreamble();
  message.insert(message.end(), payload.begin(), payload.end());
  return message;
}

BitVector SealPlmExtension(BitVector prefix, std::uint8_t version,
                           std::span<const Bit> body) {
  BitVector payload = std::move(prefix);
  AppendBitsLsbFirst(payload, version, kVersionBits);
  AppendBitsLsbFirst(payload, static_cast<std::uint32_t>(body.size()),
                     kLengthBits);
  payload.insert(payload.end(), body.begin(), body.end());
  const std::uint8_t crc =
      Crc8(std::span<const Bit>(payload).subspan(kPrefixBits));
  AppendBitsLsbFirst(payload, crc, kPlmExtCrcBits);
  return payload;
}

std::optional<PlmExtension> OpenPlmExtension(std::span<const Bit> payload) {
  // Adversarially oversized buffers are rejected before any length
  // math runs on them.
  constexpr std::size_t kMinSize = kBodyOffset + kPlmExtCrcBits;
  if (payload.size() < kMinSize || payload.size() > kMaxExtendedPayloadBits) {
    return std::nullopt;
  }
  const std::size_t body_bits =
      ReadBitsLsbFirst(payload, kLengthOffset, kLengthBits);
  if (payload.size() != kMinSize + body_bits) return std::nullopt;
  const std::size_t crc_offset = payload.size() - kPlmExtCrcBits;
  if (ReadBitsLsbFirst(payload, crc_offset, kPlmExtCrcBits) !=
      Crc8(payload.subspan(kPrefixBits, crc_offset - kPrefixBits))) {
    return std::nullopt;
  }
  return PlmExtension{
      static_cast<std::uint8_t>(
          ReadBitsLsbFirst(payload, kPrefixBits, kVersionBits)),
      payload.subspan(kBodyOffset, body_bits)};
}

PlmMessageReceiver::PlmMessageReceiver(std::size_t payload_bits)
    : payload_bits_(std::clamp<std::size_t>(payload_bits, 1,
                                            kMaxPlmPayloadBits)),
      history_(PlmPreamble().size()) {}

PlmMessageReceiver PlmMessageReceiver::ExtendedReceiver() {
  PlmMessageReceiver receiver(kBodyOffset);
  receiver.extended_ = true;
  return receiver;
}

std::optional<BitVector> PlmMessageReceiver::PushBit(Bit bit) {
  if (collecting_) {
    pending_.push_back(bit);
    if (extended_ && pending_.size() == kBodyOffset) {
      // The fixed extension header is complete: its length field tells
      // us how much body + CRC still follows. The field is 8 bits, so
      // the target is bounded by kMaxExtendedPayloadBits whatever a
      // corrupt header claims.
      target_bits_ = kBodyOffset +
                     ReadBitsLsbFirst(pending_, kLengthOffset, kLengthBits) +
                     kPlmExtCrcBits;
    }
    const std::size_t target = extended_ ? target_bits_ : payload_bits_;
    if (pending_.size() >= target) {
      collecting_ = false;
      BitVector message = std::move(pending_);
      pending_.clear();
      history_.Clear();
      return message;
    }
    return std::nullopt;
  }
  history_.Push(bit);
  if (history_.full() && history_.EndsWith(PlmPreamble())) {
    collecting_ = true;
    pending_.clear();
    // Until the header is in, the extended target is just the header.
    target_bits_ = extended_ ? kBodyOffset : payload_bits_;
  }
  return std::nullopt;
}

}  // namespace freerider::mac
