// Golden announcement test: the PLM round announcement's versioned
// extension (mac/plm.h layout) in both of its versions — version 1, the
// transport's ACK blocks (transport/ack.h), and version 2, ACK plus
// health command blocks (health/wire.h) — and the forged extensions a
// rogue exciter airs (impair/rogue.h).
//
// Each case pins two 64-bit FNV-1a hashes: one of a fixed encoded image,
// and one of the outcome of *both* announcement parsers at every
// truncation length, at every single-bit flip and at every cell whose
// unused high bits are set (a BitVector cell is a byte; only its LSB is
// the bit). A change to the wire layout, to a field's bound or to the
// accept/reject rule therefore fails here by case name, and an
// unchanged hash is the proof that a refactor of the codec kept both
// the bits and the parse outcomes identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "health/wire.h"
#include "impair/rogue.h"
#include "mac/tag_mac.h"
#include "transport/ack.h"

namespace freerider {
namespace {

class Fnv {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Bits(const BitVector& bits) {
    U64(bits.size());
    for (Bit b : bits) {
      h_ ^= b;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

void HashRound(Fnv& h, const mac::RoundAnnouncement& round) {
  h.U64(round.slots);
  h.U64(round.sequence);
}

void HashAcks(Fnv& h, const transport::AckExtension& ext) {
  h.U64(ext.acks.size());
  for (const transport::TagAck& ack : ext.acks) {
    h.U64(ack.tag_id);
    h.U64(ack.cumulative);
    h.U64(ack.nack_bitmap);
  }
}

// Both parsers' complete outcome for one payload.
void HashParses(Fnv& h, const BitVector& payload) {
  const auto v1 = transport::ParseAnnouncementExtended(payload);
  h.U64(v1.has_value());
  if (v1.has_value()) {
    HashRound(h, v1->round);
    h.U64(v1->ext_rejected);
    h.U64(v1->ext.has_value());
    if (v1->ext.has_value()) HashAcks(h, *v1->ext);
  }
  const auto v2 = health::ParseAnnouncementHealth(payload);
  h.U64(v2.has_value());
  if (v2.has_value()) {
    HashRound(h, v2->round);
    h.U64(v2->ext_rejected);
    h.U64(v2->acks.has_value());
    if (v2->acks.has_value()) HashAcks(h, *v2->acks);
    h.U64(v2->health.has_value());
    if (v2->health.has_value()) {
      h.U64(v2->health->commands.size());
      for (const health::TagCommand& cmd : v2->health->commands) {
        h.U64(cmd.tag_id);
        h.U64(cmd.admit);
        h.U64(cmd.probe);
        h.U64(cmd.boost_steps);
      }
    }
  }
}

// Both parsers over every prefix of `image` (lengths 0..size), every
// single-bit flip, and every cell with its high bits set.
std::uint64_t HashOutcomes(const BitVector& image) {
  Fnv h;
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    h.U64(cut);
    HashParses(h, BitVector(image.begin(), image.begin() + cut));
  }
  BitVector mutated = image;
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    h.U64(i);
    mutated[i] = static_cast<Bit>(image[i] ^ 1);
    HashParses(h, mutated);
    mutated[i] = static_cast<Bit>(image[i] | 0xFE);
    HashParses(h, mutated);
    mutated[i] = image[i];
  }
  return h.value();
}

struct Pins {
  std::size_t size;
  std::uint64_t bits;
  std::uint64_t outcomes;
};

void ExpectPinned(const BitVector& image, const Pins& pins) {
  Fnv bits;
  bits.Bits(image);
  const std::uint64_t outcomes = HashOutcomes(image);
  EXPECT_EQ(image.size(), pins.size);
  EXPECT_EQ(bits.value(), pins.bits) << Hex(bits.value());
  EXPECT_EQ(outcomes, pins.outcomes) << Hex(outcomes);
}

mac::RoundAnnouncement Round(std::size_t slots, std::uint8_t sequence) {
  mac::RoundAnnouncement round;
  round.slots = slots;
  round.sequence = sequence;
  return round;
}

// `n` ACK blocks with every field distinct and the NACK bitmap's top
// and bottom bits exercised.
transport::AckExtension Acks(std::size_t n) {
  transport::AckExtension ext;
  for (std::size_t i = 0; i < n; ++i) {
    transport::TagAck ack;
    ack.tag_id = static_cast<std::uint8_t>(1 + 37 * i);
    ack.cumulative = static_cast<std::uint8_t>(0xFF - 29 * i);
    ack.nack_bitmap = static_cast<std::uint16_t>(0x8001u ^ (0x1357u * i));
    ext.acks.push_back(ack);
  }
  return ext;
}

// `n` health blocks cycling through every admit/probe combination and
// every boost value, including one past the 2-bit field's clamp.
health::HealthExtension Commands(std::size_t n) {
  health::HealthExtension ext;
  for (std::size_t i = 0; i < n; ++i) {
    health::TagCommand cmd;
    cmd.tag_id = static_cast<std::uint8_t>(2 + 51 * i);
    cmd.admit = (i & 1u) == 0;
    cmd.probe = (i & 2u) != 0;
    cmd.boost_steps = static_cast<std::uint8_t>(i % 5);
    ext.commands.push_back(cmd);
  }
  return ext;
}

// -------------------------------------------------------------- legacy

TEST(AnnouncementGoldenTest, LegacyPrefix) {
  ExpectPinned(mac::BuildAnnouncement(Round(9, 200)),
               {16, 0x20949a1a92e37caaull, 0xffbca5f2acd143b5ull});
}

// ------------------------------------------------------------ version 1

TEST(AnnouncementGoldenTest, V1NoBlocks) {
  ExpectPinned(transport::BuildAnnouncementExtended(Round(4, 0), Acks(0)),
               {36, 0x21e6ff4bb373d7eeull, 0xcc8e5f40eed5c621ull});
}

TEST(AnnouncementGoldenTest, V1OneBlock) {
  ExpectPinned(transport::BuildAnnouncementExtended(Round(16, 77), Acks(1)),
               {68, 0x889954c31ac1904cull, 0xa71fb44719816d61ull});
}

TEST(AnnouncementGoldenTest, V1MaxBlocks) {
  ExpectPinned(transport::BuildAnnouncementExtended(
                   Round(255, 255), Acks(transport::kMaxAckBlocks)),
               {260, 0x590174387bb63cc0ull, 0x827fe10fb579c04aull});
}

TEST(AnnouncementGoldenTest, V1ExtraBlocksDropped) {
  ExpectPinned(transport::BuildAnnouncementExtended(
                   Round(3, 1), Acks(transport::kMaxAckBlocks + 2)),
               {260, 0x7d60e78d80bdf013ull, 0x9eb5e6b57353378aull});
}

// ------------------------------------------------------------ version 2

TEST(AnnouncementGoldenTest, V2NoBlocks) {
  ExpectPinned(
      health::BuildAnnouncementHealth(Round(4, 5), Acks(0), Commands(0)),
      {44, 0x16b1e9b0e592c252ull, 0x24b0237eb27be609ull});
}

TEST(AnnouncementGoldenTest, V2AcksOnly) {
  ExpectPinned(
      health::BuildAnnouncementHealth(Round(6, 66), Acks(2), Commands(0)),
      {108, 0x1d0306bd531af45full, 0x4f089b739fa8f7c6ull});
}

TEST(AnnouncementGoldenTest, V2CommandsOnly) {
  ExpectPinned(
      health::BuildAnnouncementHealth(Round(7, 128), Acks(0), Commands(3)),
      {92, 0xb31d5a01190c6065ull, 0x9f29db20ad95ddc6ull});
}

TEST(AnnouncementGoldenTest, V2MaxBlocks) {
  ExpectPinned(health::BuildAnnouncementHealth(
                   Round(200, 254), Acks(health::kMaxAckBlocksV2),
                   Commands(health::kMaxHealthBlocks)),
               {252, 0xb5afef02c34eb13bull, 0xbbb5f93dfcbf6008ull});
}

TEST(AnnouncementGoldenTest, V2ExtraBlocksDropped) {
  ExpectPinned(health::BuildAnnouncementHealth(
                   Round(12, 3), Acks(health::kMaxAckBlocksV2 + 3),
                   Commands(health::kMaxHealthBlocks + 1)),
               {252, 0xc30a0d362ee449c3ull, 0xb8a8fbec2bbce368ull});
}

// ------------------------------------------------------ hand-sealed

// An extension sealed by hand, independently of the codec under test:
// any version over any body, with a correct length field and CRC-8, so
// only the version and body rules can reject it.
BitVector HandSealed(std::uint32_t version, const BitVector& body) {
  BitVector payload = mac::BuildAnnouncement(Round(8, 42));
  for (std::size_t i = 0; i < 4; ++i) payload.push_back((version >> i) & 1u);
  for (std::size_t i = 0; i < 8; ++i) {
    payload.push_back((body.size() >> i) & 1u);
  }
  payload.insert(payload.end(), body.begin(), body.end());
  const std::uint8_t crc = Crc8(
      std::span<const Bit>(payload).subspan(16));
  for (std::size_t i = 0; i < 8; ++i) payload.push_back((crc >> i) & 1u);
  return payload;
}

// `bits` LSB-first fields written back to back: {value, width}, ...
BitVector Fields(std::initializer_list<std::pair<std::uint32_t, int>> fields) {
  BitVector bits;
  for (const auto& [value, width] : fields) {
    for (int i = 0; i < width; ++i) bits.push_back((value >> i) & 1u);
  }
  return bits;
}

// Well-sealed envelopes whose version or body the parsers must judge:
// unknown versions, a version-1 body that is not a whole number of ACK
// blocks, and version-2 bodies that are too short, over a block cap, or
// whose counts disagree with the length field — plus one valid of each.
TEST(AnnouncementGoldenTest, HandSealedEnvelopes) {
  const BitVector ack = Fields({{5, 8}, {250, 8}, {0xA5A5, 16}});
  BitVector ack_run = ack;
  ack_run.insert(ack_run.end(), ack.begin(), ack.end());
  BitVector v1_odd = ack;
  v1_odd.push_back(1);
  BitVector v2_acks_over_cap = Fields({{5, 4}, {0, 4}});
  for (int i = 0; i < 5; ++i) {
    v2_acks_over_cap.insert(v2_acks_over_cap.end(), ack.begin(), ack.end());
  }
  BitVector v2_one_each = Fields({{1, 4}, {1, 4}});
  v2_one_each.insert(v2_one_each.end(), ack.begin(), ack.end());
  const BitVector cmd = Fields({{5, 8}, {1, 1}, {1, 1}, {3, 2}, {0xF, 4}});
  v2_one_each.insert(v2_one_each.end(), cmd.begin(), cmd.end());
  BitVector v2_count_mismatch = Fields({{2, 4}, {0, 4}});
  v2_count_mismatch.insert(v2_count_mismatch.end(), ack.begin(), ack.end());
  BitVector v2_cmds_over_cap = Fields({{0, 4}, {6, 4}});
  for (int i = 0; i < 6; ++i) {
    v2_cmds_over_cap.insert(v2_cmds_over_cap.end(), cmd.begin(), cmd.end());
  }

  const std::vector<std::pair<std::uint32_t, BitVector>> cases = {
      {0, ack},
      {15, ack_run},
      {3, {}},
      {1, ack_run},
      {1, v1_odd},
      {1, Fields({{1, 7}})},
      {2, Fields({{0, 5}})},
      {2, Fields({{0, 4}, {0, 4}})},
      {2, v2_one_each},
      {2, v2_acks_over_cap},
      {2, v2_cmds_over_cap},
      {2, v2_count_mismatch},
      {2, ack_run},
  };
  Fnv bits;
  Fnv outcomes;
  for (const auto& [version, body] : cases) {
    const BitVector image = HandSealed(version, body);
    bits.Bits(image);
    outcomes.U64(HashOutcomes(image));
  }
  EXPECT_EQ(bits.value(), 0x349b365389e881e4ull) << Hex(bits.value());
  EXPECT_EQ(outcomes.value(), 0x7a7473ced44b53d6ull) << Hex(outcomes.value());
}

// -------------------------------------------------------------- forger

// The forged-extension corpus of one forger over its first 64 rounds:
// every image, and both parsers' outcome on it as aired.
TEST(AnnouncementGoldenTest, ForgedExtensions) {
  impair::RogueConfig config;
  config.seed = 0xF0F0123ull;
  config.tags.resize(3);
  config.tags[1].model = impair::RogueModel::kForger;
  impair::RogueEngine engine(config, 3);
  Fnv bits;
  Fnv outcomes;
  for (std::size_t round = 0; round < 64; ++round) {
    engine.BeginRound(round);
    const BitVector forged = engine.ForgedExtension(1);
    bits.Bits(forged);
    HashParses(outcomes, forged);
  }
  EXPECT_EQ(bits.value(), 0x68ebad748a84f703ull) << Hex(bits.value());
  EXPECT_EQ(outcomes.value(), 0x64338a509e460d74ull) << Hex(outcomes.value());
}

}  // namespace
}  // namespace freerider
