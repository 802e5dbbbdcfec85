#include "transport/ack.h"

#include <algorithm>

#include "common/bits.h"
#include "mac/plm.h"

namespace freerider::transport {

void AppendAckBlock(BitVector& body, const TagAck& ack) {
  AppendBitsLsbFirst(body, ack.tag_id, 8);
  AppendBitsLsbFirst(body, ack.cumulative, 8);
  AppendBitsLsbFirst(body, ack.nack_bitmap, kNackBitmapBits);
}

TagAck ReadAckBlock(std::span<const Bit> body, std::size_t offset) {
  TagAck ack;
  ack.tag_id = static_cast<std::uint8_t>(ReadBitsLsbFirst(body, offset, 8));
  ack.cumulative =
      static_cast<std::uint8_t>(ReadBitsLsbFirst(body, offset + 8, 8));
  ack.nack_bitmap = static_cast<std::uint16_t>(
      ReadBitsLsbFirst(body, offset + 16, kNackBitmapBits));
  return ack;
}

std::optional<AckExtension> DecodeAckBody(std::span<const Bit> body) {
  if (body.size() % kAckBlockBits != 0) return std::nullopt;
  AckExtension ext;
  for (std::size_t offset = 0; offset < body.size(); offset += kAckBlockBits) {
    ext.acks.push_back(ReadAckBlock(body, offset));
  }
  return ext;
}

BitVector BuildAnnouncementExtended(const mac::RoundAnnouncement& round,
                                    const AckExtension& ext) {
  BitVector body;
  const std::size_t blocks = std::min(ext.acks.size(), kMaxAckBlocks);
  for (std::size_t i = 0; i < blocks; ++i) AppendAckBlock(body, ext.acks[i]);
  return mac::SealPlmExtension(mac::BuildAnnouncement(round),
                               kAckExtensionVersion, body);
}

std::optional<ExtendedParseResult> ParseAnnouncementExtended(
    const BitVector& payload) {
  const auto round = mac::ParseAnnouncementPrefix(payload);
  if (!round.has_value()) return std::nullopt;

  ExtendedParseResult result;
  result.round = *round;
  if (payload.size() == 16) return result;  // legacy, no extension

  // Future versions pass the envelope checks (they are version-
  // independent by contract), but their body is opaque to us.
  const auto opened = mac::OpenPlmExtension(payload);
  if (opened.has_value() && opened->version == kAckExtensionVersion) {
    result.ext = DecodeAckBody(opened->body);
  }
  result.ext_rejected = !result.ext.has_value();
  return result;
}

}  // namespace freerider::transport
