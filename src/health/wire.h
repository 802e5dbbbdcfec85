// Announcement health extension: the coordinator→tag half of the link
// supervisor's control loop, carried as version 2 of the PLM
// announcement extension (envelope: mac/plm.h). It packs the ACK
// feedback *and* per-tag health commands into one announcement, so the
// supervisor costs no extra downlink airtime beyond its command bits.
// Version 2's body, all fields LSB-first:
//
//   n_ack (4) | n_health (4)
//   n_ack    × ACK block    (32 bits, transport/ack.h)
//   n_health × health block (16 bits):
//       tag id (8) | admit (1) | probe (1) | boost (2) | rsvd (4)
//
// `admit` 0 parks the tag (no uplink contention — quarantine), `probe`
// 1 asks for an immediate keepalive frame even with an empty queue,
// `boost` commands extra redundancy-ladder steps (×2 codewords per
// step) on top of the tag's own ARQ escalation.
//
// Compatibility: a legacy (16-bit) receiver still hears the unchanged
// announcement prefix; a version-1 transport receiver rejects the
// unknown version and loses one round of ACK feedback, never bit sync.
// Commands are sticky at the tag and re-sent round-robin, so a lost
// extension only delays the loop by a round.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "transport/ack.h"

namespace freerider::health {

inline constexpr std::uint8_t kHealthExtensionVersion = 2;
inline constexpr std::size_t kHealthBlockBits = 16;
/// Body budget is 255 bits: 8 count bits + 4×32 ACK + 5×16 health = 216.
inline constexpr std::size_t kMaxAckBlocksV2 = 4;
inline constexpr std::size_t kMaxHealthBlocks = 5;
/// Commanded redundancy boost is a 2-bit field.
inline constexpr std::size_t kMaxBoostSteps = 3;

/// One tag's health command as announced on the downlink.
struct TagCommand {
  std::uint8_t tag_id = 0;
  /// Contend for uplink slots. 0 = quarantined: sit rounds out.
  bool admit = true;
  /// Respond with a keepalive frame this round even if the ARQ queue
  /// is empty (probation/quarantine liveness probe).
  bool probe = false;
  /// Extra redundancy-ladder steps (×2 codewords each) the tag must
  /// apply on top of its own ARQ escalation.
  std::uint8_t boost_steps = 0;

  bool operator==(const TagCommand&) const = default;
};

struct HealthExtension {
  std::vector<TagCommand> commands;

  bool operator==(const HealthExtension&) const = default;
};

/// Build a version-2 extended announcement: legacy 16-bit prefix,
/// extension header, ACK blocks + health blocks, CRC-8. At most
/// kMaxAckBlocksV2 / kMaxHealthBlocks blocks are encoded (extras are
/// dropped — callers rotate instead).
BitVector BuildAnnouncementHealth(const mac::RoundAnnouncement& round,
                                  const transport::AckExtension& acks,
                                  const HealthExtension& health);

struct HealthParseResult {
  mac::RoundAnnouncement round;
  /// Present only when a structurally valid, CRC-clean version-2
  /// extension was attached.
  std::optional<transport::AckExtension> acks;
  std::optional<HealthExtension> health;
  /// An extension was attached but rejected (unknown version, bad
  /// length, truncated, CRC mismatch). The prefix above is still good.
  bool ext_rejected = false;
};

/// Parse an announcement payload of any provenance: exactly 16 bits is
/// a legacy announcement, longer payloads are validated as prefix +
/// extension. A version-1 (pure ACK) extension is accepted too —
/// upgraded tags must keep hearing pre-supervisor coordinators — and a
/// version-2 one only when `max_version` admits it: a transport-only
/// tag understands version 1 alone. Returns std::nullopt only when the
/// 16-bit prefix itself is unusable.
std::optional<HealthParseResult> ParseAnnouncementHealth(
    const BitVector& payload,
    std::uint8_t max_version = kHealthExtensionVersion);

}  // namespace freerider::health
