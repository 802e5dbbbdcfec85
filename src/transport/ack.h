// Announcement ACK extension: the coordinator→tag half of the reliable
// transport's feedback loop, piggybacked on the PLM round announcement
// so it costs no extra downlink messages. The envelope (version, body
// length, CRC-8) is mac/plm.h's; this module owns the body.
//
// Version 1's body is a run of 32-bit ACK blocks, all fields LSB-first:
//
//   tag id (8) | cumulative seq (8) | NACK bitmap (16)
//
// "cumulative" is the newest sequence number below which the
// coordinator has received *everything* from that tag (255 == nothing
// yet, i.e. next expected is 0). NACK bitmap bit i set means sequence
// cumulative+1+i is known missing — the coordinator has already
// received something newer, so the gap is a real loss, not just
// in-flight data. Version 2 (health/wire.h) carries the same block.
//
// The 8-bit body-length field caps the body at 255 bits = 7 blocks per
// announcement; coordinators with more tags rotate blocks round-robin
// across rounds (announcement airtime is the scarce resource, and
// stale ACK state only costs a duplicate retransmission).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "mac/tag_mac.h"

namespace freerider::transport {

inline constexpr std::uint8_t kAckExtensionVersion = 1;
inline constexpr std::size_t kNackBitmapBits = 16;
inline constexpr std::size_t kAckBlockBits = 8 + 8 + kNackBitmapBits;
inline constexpr std::size_t kMaxAckBlocks = 255 / kAckBlockBits;  // 7

/// One tag's receive state as announced on the downlink.
struct TagAck {
  std::uint8_t tag_id = 0;
  /// Everything up to and including this sequence has been received
  /// in order (255 == next expected is 0, the initial state).
  std::uint8_t cumulative = 0xFF;
  /// Bit i: sequence cumulative+1+i is missing below the newest
  /// sequence the coordinator has seen from this tag.
  std::uint16_t nack_bitmap = 0;

  bool operator==(const TagAck&) const = default;
};

struct AckExtension {
  std::vector<TagAck> acks;

  bool operator==(const AckExtension&) const = default;
};

/// Append one ACK block to an extension body.
void AppendAckBlock(BitVector& body, const TagAck& ack);

/// Read the ACK block starting at `offset` of an extension body.
TagAck ReadAckBlock(std::span<const Bit> body, std::size_t offset);

/// Decode an opened version-1 body: a whole number of ACK blocks, else
/// std::nullopt.
std::optional<AckExtension> DecodeAckBody(std::span<const Bit> body);

/// Build the full extended announcement payload: legacy 16-bit prefix,
/// extension header, version-1 ACK body, CRC. At most kMaxAckBlocks
/// blocks are encoded (extras are dropped — callers rotate instead).
BitVector BuildAnnouncementExtended(const mac::RoundAnnouncement& round,
                                    const AckExtension& ext);

struct ExtendedParseResult {
  mac::RoundAnnouncement round;
  /// Present only when a structurally valid, CRC-clean version-1
  /// extension was attached.
  std::optional<AckExtension> ext;
  /// An extension was attached but rejected (unknown version, bad
  /// length, truncated, CRC mismatch). The legacy prefix above is
  /// still good — extension damage must never desync the round MAC.
  bool ext_rejected = false;
};

/// Parse an announcement payload of any provenance: exactly 16 bits is
/// a legacy announcement (no extension), longer payloads are validated
/// as prefix + extension. Returns std::nullopt only when the 16-bit
/// prefix itself is unusable.
std::optional<ExtendedParseResult> ParseAnnouncementExtended(
    const BitVector& payload);

}  // namespace freerider::transport
