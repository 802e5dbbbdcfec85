#include "impair/rogue.h"

#include <algorithm>

#include "health/wire.h"
#include "mac/plm.h"
#include "transport/ack.h"

namespace freerider::impair {
namespace {

/// Stream-id salts: slot actions, per-round draws and forged-payload
/// material come from disjoint counter-based streams so adding a draw
/// to one never perturbs another.
constexpr std::uint64_t kRoundSalt = 0x10000;
constexpr std::uint64_t kForgeSalt = 0x20000;
/// Slot stride for the per-slot trial counter (far above any slot
/// count the scheduler can reach).
constexpr std::uint64_t kSlotStride = 4096;

const RogueSpec kHonest{};

void AppendBitsLsbFirst(BitVector& out, std::uint32_t value,
                        std::size_t bits) {
  for (std::size_t i = 0; i < bits; ++i) {
    out.push_back(static_cast<Bit>((value >> i) & 1u));
  }
}

}  // namespace

const char* RogueModelName(RogueModel model) {
  switch (model) {
    case RogueModel::kNone: return "none";
    case RogueModel::kBabbler: return "babbler";
    case RogueModel::kSlotThief: return "slot_thief";
    case RogueModel::kReplayer: return "replayer";
    case RogueModel::kForger: return "forger";
    case RogueModel::kClone: return "clone";
    case RogueModel::kFlapper: return "flapper";
  }
  return "?";
}

RogueEngine::RogueEngine(const RogueConfig& config, std::size_t num_tags)
    : config_(config), num_tags_(num_tags) {
  config_.tags.resize(num_tags);
  for (RogueSpec& s : config_.tags) {
    s.theft_fraction = std::clamp(s.theft_fraction, 0.0, 1.0);
    s.forge_probability = std::clamp(s.forge_probability, 0.0, 1.0);
    s.junk_fire_probability = std::clamp(s.junk_fire_probability, 0.0, 1.0);
    if (s.flap_on_rounds == 0) s.flap_on_rounds = 1;
    if (s.flap_off_rounds == 0) s.flap_off_rounds = 1;
    s.replay_window = std::clamp<std::size_t>(s.replay_window, 1, 255);
    if (s.clone_of >= num_tags) s.clone_of = 0;
  }
  enabled_ = config_.AnyEnabled();
}

const RogueSpec& RogueEngine::spec(std::size_t tag) const {
  return tag < config_.tags.size() ? config_.tags[tag] : kHonest;
}

void RogueEngine::BeginRound(std::size_t round) { round_ = round; }

Rng RogueEngine::SlotRng(std::size_t tag, std::size_t slot) const {
  return Rng::ForTrial(config_.seed, tag, round_ * kSlotStride + slot);
}

Rng RogueEngine::RoundRng(std::size_t tag) const {
  return Rng::ForTrial(config_.seed, tag + kRoundSalt, round_);
}

bool RogueEngine::Joined(std::size_t tag) const {
  const RogueSpec& s = spec(tag);
  if (s.model != RogueModel::kFlapper) return true;
  const std::size_t cycle = s.flap_on_rounds + s.flap_off_rounds;
  return (round_ % cycle) < s.flap_on_rounds;
}

std::uint8_t RogueEngine::WireId(std::size_t tag) const {
  const RogueSpec& s = spec(tag);
  const std::size_t identity =
      s.model == RogueModel::kClone ? s.clone_of : tag;
  return static_cast<std::uint8_t>(identity + 1);
}

RogueSlotAction RogueEngine::SlotAction(std::size_t tag,
                                        std::size_t slot) const {
  RogueSlotAction action;
  const RogueSpec& s = spec(tag);
  action.wire_id = WireId(tag);
  switch (s.model) {
    case RogueModel::kBabbler: {
      Rng rng = SlotRng(tag, slot);
      action.extra_fire = true;
      action.seq = static_cast<std::uint8_t>(rng.NextU64());
      break;
    }
    case RogueModel::kSlotThief: {
      Rng rng = SlotRng(tag, slot);
      action.extra_fire = rng.NextDouble() < s.theft_fraction;
      action.seq = static_cast<std::uint8_t>(rng.NextU64());
      break;
    }
    case RogueModel::kForger: {
      Rng rng = SlotRng(tag, slot);
      action.extra_fire = rng.NextDouble() < s.junk_fire_probability;
      // Junk frames carry an out-of-range id: the coordinator must
      // classify, count and drop them without attributing them.
      action.wire_id = 0;
      action.seq = static_cast<std::uint8_t>(rng.NextU64());
      break;
    }
    case RogueModel::kNone:
    case RogueModel::kReplayer:
    case RogueModel::kClone:
    case RogueModel::kFlapper:
      break;
  }
  return action;
}

std::uint8_t RogueEngine::ReplaySeq(std::size_t tag) const {
  // A captured-window loop: the rogue recorded replay_window frames
  // whose sequences ended replay_offset behind the epoch and re-sends
  // them cyclically, the way a real record-and-replay attacker holds a
  // finite capture. The sequence set is *fixed*, which is what makes
  // the attack permanently incriminating: it can never track the
  // receiver's expected pointer, so every arrival classifies as
  // beyond-window / deep-stale / (within one loop) replay-alias — a
  // sliding `round - offset` stream would instead be indistinguishable
  // from an honest tag with a lagging counter once the coordinator
  // re-anchors.
  const RogueSpec& s = spec(tag);
  const std::size_t window = std::max<std::size_t>(s.replay_window, 1);
  return static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(0 - s.replay_offset) + round_ % window);
}

std::uint8_t RogueEngine::CloneSeq(std::size_t tag) const {
  (void)tag;
  return static_cast<std::uint8_t>(round_ + 128);
}

bool RogueEngine::ForgesThisRound(std::size_t tag) const {
  const RogueSpec& s = spec(tag);
  if (s.model != RogueModel::kForger) return false;
  Rng rng = RoundRng(tag);
  return rng.NextDouble() < s.forge_probability;
}

BitVector RogueEngine::ForgedExtension(std::size_t tag) const {
  Rng rng = Rng::ForTrial(config_.seed, tag + kForgeSalt, round_);
  mac::RoundAnnouncement round;
  round.slots = static_cast<std::size_t>(1 + rng.NextBelow(16));
  round.sequence = static_cast<std::uint8_t>(rng.NextU64());
  const std::uint64_t corpus = rng.NextBelow(5);
  if (corpus < 2) {
    // CRC-guessing garbage: a random body under a *correct* CRC-8 —
    // the checksum is no authenticator, so the parser's structural
    // validation (version, length equation, block-count bounds) is the
    // only line of defense. Most of these must die there.
    BitVector payload = mac::BuildAnnouncement(round);
    const std::size_t body_bits = 8 + rng.NextBelow(192);
    AppendBitsLsbFirst(payload, health::kHealthExtensionVersion, 4);
    AppendBitsLsbFirst(payload, static_cast<std::uint32_t>(body_bits), 8);
    for (std::size_t i = 0; i < body_bits; ++i) {
      payload.push_back(static_cast<Bit>(rng.NextU64() & 1u));
    }
    const std::uint8_t crc = transport::CrcExtension(
        std::span<const Bit>(payload).subspan(16, payload.size() - 16));
    AppendBitsLsbFirst(payload, crc, mac::kPlmExtCrcBits);
    return payload;
  }
  // The remaining corpus starts from a well-formed extension carrying
  // adversarial content (bogus acks and commands for random tags)...
  transport::AckExtension acks;
  const std::size_t n_ack = rng.NextBelow(health::kMaxAckBlocksV2 + 1);
  for (std::size_t i = 0; i < n_ack; ++i) {
    transport::TagAck ack;
    ack.tag_id = static_cast<std::uint8_t>(1 + rng.NextBelow(num_tags_));
    ack.cumulative = static_cast<std::uint8_t>(rng.NextU64());
    ack.nack_bitmap = static_cast<std::uint16_t>(rng.NextU64());
    acks.acks.push_back(ack);
  }
  health::HealthExtension cmds;
  const std::size_t n_cmd = 1 + rng.NextBelow(health::kMaxHealthBlocks);
  for (std::size_t i = 0; i < n_cmd; ++i) {
    health::TagCommand cmd;
    cmd.tag_id = static_cast<std::uint8_t>(1 + rng.NextBelow(num_tags_));
    cmd.admit = rng.NextBit() != 0;
    cmd.probe = rng.NextBit() != 0;
    cmd.boost_steps =
        static_cast<std::uint8_t>(rng.NextBelow(health::kMaxBoostSteps + 1));
    cmds.commands.push_back(cmd);
  }
  BitVector payload = health::BuildAnnouncementHealth(round, acks, cmds);
  if (corpus < 4) {
    // ...then corrupts it: truncation or bit flips. CRC (or the length
    // equation) must catch every one of these.
    if (rng.NextBit() != 0 && payload.size() > 17) {
      payload.resize(17 + rng.NextBelow(payload.size() - 17));
    } else {
      const std::size_t flips = 1 + rng.NextBelow(3);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t pos =
            16 + static_cast<std::size_t>(rng.NextBelow(payload.size() - 16));
        payload[pos] ^= 1;
      }
    }
  }
  // corpus == 4 stays intact: the worst case, indistinguishable from a
  // genuine announcement. Sticky commands plus the coordinator's
  // round-robin re-announce bound the damage to a round or two.
  return payload;
}

}  // namespace freerider::impair
