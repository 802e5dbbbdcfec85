// Adversarial soak harness (sim/adversarial): end-to-end Byzantine
// campaigns through the full-PHY stack. These are deliberately small
// casts (2-3 tags, 35-130 rounds) so the suite stays fast; the bench
// carries the full 6-tag three-seed matrix. What must hold here:
// defended campaigns quarantine the rogue within the derived bound and
// keep it parked, the defense A/B gap is real (defenses are
// load-bearing, not decorative), the replayer never lands a stale
// delivery, and the result is deterministic and snapshot-exact.
#include <gtest/gtest.h>

#include <string>

#include "sim/adversarial.h"

namespace {

using namespace freerider;
using sim::AdversarialConfig;
using sim::AdversarialResult;
using sim::DeserializeAdversarialResult;
using sim::RunAdversarial;
using sim::SerializeAdversarialResult;

AdversarialConfig SmallCampaign(std::size_t num_tags, std::size_t rounds,
                                std::size_t drain) {
  AdversarialConfig config;
  config.seed = 99;
  config.num_tags = num_tags;
  config.rounds = rounds;
  config.drain_rounds = drain;
  config.offer_every = 2;
  config.transport.max_transmissions = 16;
  config.transport.expiry_rounds = 1000000;
  config.transport.queue_capacity = 24;
  config.transport.rto_rounds = 3;
  config.transport.max_escalation_steps = 1;
  config.transport.hole_skip_rounds = 96;
  config.rogue.seed = 0x5EED;
  config.rogue.tags.resize(num_tags);
  return config;
}

TEST(AdversarialCampaignTest, BabblerContainedAndDefensesAreLoadBearing) {
  AdversarialConfig config = SmallCampaign(3, 25, 10);
  config.rogue.tags[2].model = impair::RogueModel::kBabbler;

  config.defenses_on = true;
  const AdversarialResult on = RunAdversarial(config);
  EXPECT_TRUE(on.passed);
  EXPECT_EQ(on.violations.total(), 0u);
  ASSERT_EQ(on.audits.size(), 1u);
  EXPECT_EQ(on.audits[0].tag, 2u);
  EXPECT_EQ(on.audits[0].wire_id, 3u);
  EXPECT_TRUE(on.audits[0].via_misbehavior);
  EXPECT_TRUE(on.audits[0].quarantined);
  EXPECT_TRUE(on.audits[0].bound_met);
  EXPECT_TRUE(on.audits[0].parked_at_end);
  EXPECT_LE(on.audits[0].quarantine_round + 1, on.audits[0].bound);
  EXPECT_GE(on.misbehavior_quarantines, 1u);
  EXPECT_GT(on.rogue_extra_frames, 0u);
  EXPECT_GT(on.police_evidence, 0u);
  // A flagrant babbler fires every slot; with it parked early the two
  // victims should deliver essentially everything they offer.
  EXPECT_GT(on.victim_delivery, 0.9);

  config.defenses_on = false;
  const AdversarialResult off = RunAdversarial(config);
  EXPECT_TRUE(off.audits.empty());  // nothing to audit without defenses
  EXPECT_EQ(off.misbehavior_quarantines, 0u);
  // Load-bearing check: with no police the babbler collides every
  // slot, the victims look silent and collapse. The exact floor varies
  // with the cast; the gap is what the defense claims.
  EXPECT_GT(on.victim_delivery, off.victim_delivery + 0.2);
}

TEST(AdversarialCampaignTest, ReplayerIsEmbargoedAndNeverDelivers) {
  AdversarialConfig config = SmallCampaign(2, 100, 30);
  config.rogue.tags[1].model = impair::RogueModel::kReplayer;
  config.defenses_on = true;

  const AdversarialResult result = RunAdversarial(config);
  // The contract the captured-window replayer must hit: quarantined in
  // bound, held parked by embargo re-incrimination across every probe
  // cycle, and not one of its stale frames delivered (any delivery on
  // the replayer's id is recorded as a "stale_delivery" violation).
  EXPECT_TRUE(result.passed);
  EXPECT_EQ(result.violations.total(), 0u);
  ASSERT_EQ(result.audits.size(), 1u);
  EXPECT_TRUE(result.audits[0].quarantined);
  EXPECT_TRUE(result.audits[0].bound_met);
  EXPECT_TRUE(result.audits[0].parked_at_end);
  EXPECT_GE(result.misbehavior_quarantines, 1u);
  // The honest victim rides along undisturbed: the replayer only
  // pollutes its own identity.
  EXPECT_GT(result.victim_delivery, 0.9);
}

TEST(AdversarialCampaignTest, OutOfRangeCloneAuditsTheClonedIdentity) {
  // The rogue engine maps an out-of-range clone_of to tag 0; the cast
  // list and the audits must follow it, so the campaign is the same as
  // an explicit clone of tag 0.
  AdversarialConfig config = SmallCampaign(3, 25, 10);
  config.rogue.tags[2].model = impair::RogueModel::kClone;
  config.rogue.tags[2].clone_of = 7;
  config.defenses_on = true;
  const AdversarialResult out_of_range = RunAdversarial(config);
  ASSERT_EQ(out_of_range.audits.size(), 2u);
  EXPECT_EQ(out_of_range.audits[0].model, "clone");
  EXPECT_EQ(out_of_range.audits[0].wire_id, 1);
  EXPECT_EQ(out_of_range.audits[1].model, "clone_own_id");
  EXPECT_EQ(out_of_range.audits[1].wire_id, 3);

  config.rogue.tags[2].clone_of = 0;
  EXPECT_EQ(RunAdversarial(config).digest, out_of_range.digest);
}

TEST(AdversarialCampaignTest, DeterministicDigestAndSnapshotRoundTrip) {
  AdversarialConfig config = SmallCampaign(2, 60, 20);
  config.rogue.tags[1].model = impair::RogueModel::kSlotThief;
  config.defenses_on = true;

  const AdversarialResult a = RunAdversarial(config);
  const AdversarialResult b = RunAdversarial(config);
  ASSERT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest, b.digest);

  const std::string payload = SerializeAdversarialResult(a);
  AdversarialResult restored;
  ASSERT_TRUE(DeserializeAdversarialResult(payload, &restored));
  EXPECT_EQ(restored.digest, a.digest);
  EXPECT_EQ(restored.passed, a.passed);
  EXPECT_EQ(restored.victim_offered, a.victim_offered);
  EXPECT_EQ(restored.victim_delivered, a.victim_delivered);
  EXPECT_EQ(restored.violations.total(), a.violations.total());
  ASSERT_EQ(restored.audits.size(), a.audits.size());
  for (std::size_t i = 0; i < a.audits.size(); ++i) {
    EXPECT_EQ(restored.audits[i].wire_id, a.audits[i].wire_id);
    EXPECT_EQ(restored.audits[i].model, a.audits[i].model);
    EXPECT_EQ(restored.audits[i].quarantined, a.audits[i].quarantined);
    EXPECT_EQ(restored.audits[i].quarantine_round,
              a.audits[i].quarantine_round);
  }

  AdversarialResult reject;
  EXPECT_FALSE(DeserializeAdversarialResult("", &reject));
  EXPECT_FALSE(DeserializeAdversarialResult("garbage", &reject));
  std::string truncated = payload.substr(0, payload.size() / 2);
  EXPECT_FALSE(DeserializeAdversarialResult(truncated, &reject));
}

}  // namespace
