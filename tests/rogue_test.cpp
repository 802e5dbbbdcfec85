// Rogue-tag behavior models (impair/rogue): deterministic Byzantine
// adversaries. The properties that matter downstream: actions are pure
// functions of (seed, tag, round, slot) so campaigns stay reproducible
// at any thread count; the engine snapshots to its round cursor alone;
// honest tags draw nothing; and the forged-extension corpus really is
// hostile (structurally plausible, mostly rejected by the codec).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "health/wire.h"
#include "impair/rogue.h"

namespace {

using namespace freerider;
using impair::RogueConfig;
using impair::RogueEngine;
using impair::RogueModel;
using impair::RogueSlotAction;
using impair::RogueSpec;

RogueConfig CastOf(std::size_t num_tags,
                   std::vector<std::pair<std::size_t, RogueModel>> cast) {
  RogueConfig config;
  config.tags.resize(num_tags);
  for (const auto& [tag, model] : cast) config.tags[tag].model = model;
  return config;
}

TEST(RogueEngineTest, HonestConfigIsDisabled) {
  RogueConfig config;
  config.tags.resize(4);
  EXPECT_FALSE(config.AnyEnabled());
  RogueEngine engine(config, 4);
  EXPECT_FALSE(engine.enabled());
  engine.BeginRound(0);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_FALSE(engine.is_rogue(t));
    EXPECT_TRUE(engine.Joined(t));
    EXPECT_EQ(engine.WireId(t), static_cast<std::uint8_t>(t + 1));
    const RogueSlotAction a = engine.SlotAction(t, 0);
    EXPECT_FALSE(a.extra_fire);
  }
}

TEST(RogueEngineTest, ActionsArePureInRoundAndSlot) {
  const RogueConfig config = CastOf(
      6, {{1, RogueModel::kBabbler}, {3, RogueModel::kSlotThief},
          {4, RogueModel::kReplayer}, {5, RogueModel::kForger}});
  RogueEngine a(config, 6);
  RogueEngine b(config, 6);
  // b visits the rounds in a different call pattern (re-issuing
  // BeginRound and querying slots in reverse): same decisions.
  for (std::size_t round = 0; round < 32; ++round) {
    a.BeginRound(round);
    b.BeginRound(round);
    for (std::size_t t = 0; t < 6; ++t) {
      EXPECT_EQ(a.ForgesThisRound(t), b.ForgesThisRound(t));
      EXPECT_EQ(a.ReplaySeq(t), b.ReplaySeq(t));
      for (std::size_t slot = 12; slot-- > 0;) {
        const RogueSlotAction x = a.SlotAction(t, slot);
        const RogueSlotAction y = b.SlotAction(t, slot);
        EXPECT_EQ(x.extra_fire, y.extra_fire);
        EXPECT_EQ(x.wire_id, y.wire_id);
        EXPECT_EQ(x.seq, y.seq);
        // Re-query is idempotent: no hidden per-draw state.
        const RogueSlotAction z = a.SlotAction(t, slot);
        EXPECT_EQ(x.extra_fire, z.extra_fire);
        EXPECT_EQ(x.seq, z.seq);
      }
    }
  }
}

TEST(RogueEngineTest, BabblerFiresEverySlotThiefMostButNotAll) {
  const RogueConfig config =
      CastOf(4, {{0, RogueModel::kBabbler}, {1, RogueModel::kSlotThief}});
  RogueEngine engine(config, 4);
  std::size_t thief_fires = 0;
  const std::size_t slots_per_round = 8, rounds = 50;
  for (std::size_t round = 0; round < rounds; ++round) {
    engine.BeginRound(round);
    for (std::size_t slot = 0; slot < slots_per_round; ++slot) {
      EXPECT_TRUE(engine.SlotAction(0, slot).extra_fire);
      thief_fires += engine.SlotAction(1, slot).extra_fire ? 1 : 0;
      EXPECT_FALSE(engine.SlotAction(2, slot).extra_fire);
    }
  }
  const double fraction =
      static_cast<double>(thief_fires) / (slots_per_round * rounds);
  // theft_fraction defaults to 0.9.
  EXPECT_GT(fraction, 0.8);
  EXPECT_LT(fraction, 1.0);
}

TEST(RogueEngineTest, ReplayerLoopsOverFixedCapturedWindow) {
  RogueConfig config = CastOf(2, {{1, RogueModel::kReplayer}});
  config.tags[1].replay_offset = 200;
  config.tags[1].replay_window = 16;
  RogueEngine engine(config, 2);
  std::set<std::uint8_t> seqs;
  for (std::size_t round = 0; round < 256; ++round) {
    engine.BeginRound(round);
    seqs.insert(engine.ReplaySeq(1));
  }
  // Record-and-replay: the sequence set is the finite capture, looped.
  // A fixed set can never track the receiver's expected pointer, which
  // is what keeps the attack permanently classifiable (beyond-window /
  // stale / alias) instead of blending in as a lagging honest stream.
  EXPECT_EQ(seqs.size(), 16u);
  const std::uint8_t base = static_cast<std::uint8_t>(0 - 200);  // 56
  for (const std::uint8_t s : seqs) {
    EXPECT_GE(s, base);
    EXPECT_LT(s, base + 16);
  }
  engine.BeginRound(35);
  EXPECT_EQ(engine.ReplaySeq(1), static_cast<std::uint8_t>(base + 35 % 16));
  engine.BeginRound(35 + 16);
  EXPECT_EQ(engine.ReplaySeq(1), static_cast<std::uint8_t>(base + 35 % 16));
}

TEST(RogueEngineTest, CloneWearsVictimIdentityAtHalfSpaceOffset) {
  RogueConfig config = CastOf(4, {{3, RogueModel::kClone}});
  config.tags[3].clone_of = 1;
  RogueEngine engine(config, 4);
  engine.BeginRound(7);
  EXPECT_EQ(engine.WireId(3), 2);  // victim's 1-based id
  EXPECT_EQ(engine.WireId(1), 2);
  // The clone's counter sits half the serial space away from live, so
  // interleaving with the honest stream ping-pongs across the space —
  // exactly what the police's jump detector keys on.
  const std::uint8_t clone_seq = engine.CloneSeq(3);
  const std::uint8_t live_seq = static_cast<std::uint8_t>(7);
  EXPECT_EQ(static_cast<std::uint8_t>(clone_seq - live_seq), 128);
}

TEST(RogueEngineTest, FlapperDutyCyclesAndNeverMisbehaves) {
  RogueConfig config = CastOf(2, {{0, RogueModel::kFlapper}});
  config.tags[0].flap_on_rounds = 4;
  config.tags[0].flap_off_rounds = 6;
  RogueEngine engine(config, 2);
  std::size_t joined_rounds = 0;
  for (std::size_t round = 0; round < 100; ++round) {
    engine.BeginRound(round);
    if (engine.Joined(0)) ++joined_rounds;
    EXPECT_TRUE(engine.Joined(1));
    EXPECT_FALSE(engine.SlotAction(0, 0).extra_fire);
  }
  EXPECT_EQ(joined_rounds, 40u);  // 4 of every 10 rounds
}

TEST(RogueEngineTest, ForgedExtensionCorpusIsHostileButPlausible) {
  const RogueConfig config = CastOf(2, {{1, RogueModel::kForger}});
  RogueEngine engine(config, 2);
  std::size_t forged = 0, parsed_valid = 0, rejected = 0;
  for (std::size_t round = 0; round < 400; ++round) {
    engine.BeginRound(round);
    if (!engine.ForgesThisRound(1)) continue;
    ++forged;
    const BitVector wire = engine.ForgedExtension(1);
    ASSERT_GE(wire.size(), 16u);  // always a parseable 16-bit prefix
    const auto result = health::ParseAnnouncementHealth(wire);
    ASSERT_TRUE(result.has_value());  // prefix survives; no crash
    if (result->ext_rejected) {
      ++rejected;
    } else if (result->acks.has_value() || result->health.has_value()) {
      ++parsed_valid;
    }
  }
  // forge_probability defaults to 0.5 over 400 rounds.
  EXPECT_GT(forged, 120u);
  // The codec must reject the bulk of the corpus (cut/flipped/garbage
  // bodies behind a guessed CRC-8)...
  EXPECT_GT(rejected, forged / 2);
  // ...but the corpus must not be a pushover either: the intact
  // adversarial fifth parses, which is what makes the "accepted"
  // counter in the campaign a meaningful residual-risk metric.
  EXPECT_GT(parsed_valid, 0u);
}

TEST(RogueEngineTest, DifferentSeedsDecorrelate) {
  RogueConfig a_cfg = CastOf(2, {{0, RogueModel::kSlotThief}});
  a_cfg.tags[0].theft_fraction = 0.5;
  RogueConfig b_cfg = a_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  RogueEngine a(a_cfg, 2);
  RogueEngine b(b_cfg, 2);
  std::size_t differing = 0;
  for (std::size_t round = 0; round < 64; ++round) {
    a.BeginRound(round);
    b.BeginRound(round);
    for (std::size_t slot = 0; slot < 8; ++slot) {
      differing +=
          a.SlotAction(0, slot).extra_fire != b.SlotAction(0, slot).extra_fire;
    }
  }
  EXPECT_GT(differing, 50u);
}

}  // namespace
