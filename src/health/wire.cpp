#include "health/wire.h"

#include <algorithm>

#include "common/bits.h"
#include "mac/plm.h"

namespace freerider::health {
namespace {

/// Decode an opened version-2 body into `result`, which is left
/// untouched when the counts exceed the caps or do not account for
/// every body bit.
void DecodeHealthBody(std::span<const Bit> body, HealthParseResult& result) {
  if (body.size() < 8) return;
  const std::uint32_t n_ack = ReadBitsLsbFirst(body, 0, 4);
  const std::uint32_t n_health = ReadBitsLsbFirst(body, 4, 4);
  if (n_ack > kMaxAckBlocksV2 || n_health > kMaxHealthBlocks ||
      body.size() != 8 + n_ack * transport::kAckBlockBits +
                         n_health * kHealthBlockBits) {
    return;
  }
  transport::AckExtension acks;
  std::size_t offset = 8;
  for (std::uint32_t i = 0; i < n_ack; ++i) {
    acks.acks.push_back(transport::ReadAckBlock(body, offset));
    offset += transport::kAckBlockBits;
  }
  HealthExtension health;
  for (std::uint32_t i = 0; i < n_health; ++i) {
    TagCommand cmd;
    cmd.tag_id = static_cast<std::uint8_t>(ReadBitsLsbFirst(body, offset, 8));
    cmd.admit = ReadBitsLsbFirst(body, offset + 8, 1) != 0;
    cmd.probe = ReadBitsLsbFirst(body, offset + 9, 1) != 0;
    cmd.boost_steps =
        static_cast<std::uint8_t>(ReadBitsLsbFirst(body, offset + 10, 2));
    health.commands.push_back(cmd);
    offset += kHealthBlockBits;
  }
  result.acks = std::move(acks);
  result.health = std::move(health);
}

}  // namespace

BitVector BuildAnnouncementHealth(const mac::RoundAnnouncement& round,
                                  const transport::AckExtension& acks,
                                  const HealthExtension& health) {
  const std::size_t n_ack = std::min(acks.acks.size(), kMaxAckBlocksV2);
  const std::size_t n_health =
      std::min(health.commands.size(), kMaxHealthBlocks);
  BitVector body;
  AppendBitsLsbFirst(body, static_cast<std::uint32_t>(n_ack), 4);
  AppendBitsLsbFirst(body, static_cast<std::uint32_t>(n_health), 4);
  for (std::size_t i = 0; i < n_ack; ++i) {
    transport::AppendAckBlock(body, acks.acks[i]);
  }
  for (std::size_t i = 0; i < n_health; ++i) {
    const TagCommand& cmd = health.commands[i];
    AppendBitsLsbFirst(body, cmd.tag_id, 8);
    AppendBitsLsbFirst(body, cmd.admit ? 1 : 0, 1);
    AppendBitsLsbFirst(body, cmd.probe ? 1 : 0, 1);
    AppendBitsLsbFirst(body,
                       std::min<std::uint32_t>(cmd.boost_steps, kMaxBoostSteps),
                       2);
    AppendBitsLsbFirst(body, 0, 4);  // reserved
  }
  return mac::SealPlmExtension(mac::BuildAnnouncement(round),
                               kHealthExtensionVersion, body);
}

std::optional<HealthParseResult> ParseAnnouncementHealth(
    const BitVector& payload, std::uint8_t max_version) {
  const auto round = mac::ParseAnnouncementPrefix(payload);
  if (!round.has_value()) return std::nullopt;

  HealthParseResult result;
  result.round = *round;
  if (payload.size() == 16) return result;  // legacy, no extension

  if (const auto opened = mac::OpenPlmExtension(payload)) {
    if (opened->version == transport::kAckExtensionVersion) {
      // A pre-supervisor coordinator: the body is a plain run of ACKs.
      result.acks = transport::DecodeAckBody(opened->body);
    } else if (opened->version == kHealthExtensionVersion &&
               opened->version <= max_version) {
      DecodeHealthBody(opened->body, result);
    }
  }
  // Every accepted body carries an ACK list, empty or not.
  result.ext_rejected = !result.acks.has_value();
  return result;
}

}  // namespace freerider::health
