// Coordinator-side slot policing (mac/policing): per-round occupancy
// counts and the identity-collision (clone) detector, folded over the
// decoded frame stream. The property the supervisor's detection bound
// leans on: honest traffic — including resync jumps — charges zero
// evidence; real offenders charge every round they offend.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mac/policing.h"

namespace {

using namespace freerider;
using mac::PolicingConfig;
using mac::SlotPolice;

PolicingConfig Enabled() {
  PolicingConfig config;
  config.enabled = true;
  return config;
}

TEST(SlotPoliceTest, HonestSingleFrameRoundsChargeNothing) {
  SlotPolice police(Enabled(), 3);
  for (std::size_t round = 0; round < 64; ++round) {
    police.BeginRound(round);
    for (std::size_t t = 0; t < 3; ++t) {
      police.OnFrame(t, static_cast<std::uint8_t>(round));
    }
    const std::vector<std::size_t> evidence = police.EndRound();
    for (std::size_t t = 0; t < 3; ++t) EXPECT_EQ(evidence[t], 0u);
  }
  EXPECT_EQ(police.stats().evidence_total, 0u);
  EXPECT_FALSE(police.collision_suspected(0));
}

TEST(SlotPoliceTest, MultiFireChargesPerExtraFrame) {
  SlotPolice police(Enabled(), 2);
  police.BeginRound(0);
  police.OnFrame(0, 1);
  police.OnFrame(0, 2);
  police.OnFrame(0, 3);  // babbler: 3 frames, budget 1
  police.OnFrame(1, 9);
  const std::vector<std::size_t> evidence = police.EndRound();
  EXPECT_EQ(evidence[0], 2u);
  EXPECT_EQ(evidence[1], 0u);
  EXPECT_EQ(police.tag_stats(0).extra_frames, 2u);
  EXPECT_EQ(police.tag_stats(0).multi_fire_rounds, 1u);
  EXPECT_EQ(police.stats().evidence_total, 2u);
}

TEST(SlotPoliceTest, SingleResyncJumpDoesNotRaiseSuspicion) {
  // An honest tag that went silent and re-anchored jumps once in the
  // serial space. One jump (even a couple, spread out) must never look
  // like a clone.
  SlotPolice police(Enabled(), 1);
  std::uint8_t seq = 10;
  std::size_t round = 0;
  for (; round < 10; ++round) {
    police.BeginRound(round);
    police.OnFrame(0, seq++);
    EXPECT_EQ(police.EndRound()[0], 0u);
  }
  seq = 200;  // resync: one big jump
  for (; round < 20; ++round) {
    police.BeginRound(round);
    police.OnFrame(0, seq++);
    EXPECT_EQ(police.EndRound()[0], 0u);
  }
  EXPECT_FALSE(police.collision_suspected(0));
  EXPECT_EQ(police.tag_stats(0).seq_jumps, 1u);
}

TEST(SlotPoliceTest, InterleavedCloneStreamsRaiseLatchedSuspicion) {
  // Two physical tags on one id: a live stream near seq and a clone
  // stream half the space away. Every other arrival jumps ~128.
  PolicingConfig config = Enabled();
  SlotPolice police(config, 2);
  bool suspected = false;
  std::size_t suspicion_round = 0;
  for (std::size_t round = 0; round < 16 && !suspected; ++round) {
    police.BeginRound(round);
    police.OnFrame(0, static_cast<std::uint8_t>(round));        // honest
    police.OnFrame(0, static_cast<std::uint8_t>(round + 128));  // clone
    police.OnFrame(1, static_cast<std::uint8_t>(round));        // bystander
    const std::vector<std::size_t> evidence = police.EndRound();
    EXPECT_EQ(evidence[1], 0u);
    if (police.collision_suspected(0)) {
      suspected = true;
      suspicion_round = round;
      // The round the suspicion fires charges the collision burst on
      // top of the extra-frame count.
      EXPECT_GE(evidence[0], config.collision_evidence);
    }
  }
  ASSERT_TRUE(suspected);
  EXPECT_LE(suspicion_round, 4u);  // 3 jumps at 2 arrivals/round
  EXPECT_GE(police.tag_stats(0).collision_suspicions, 1u);

  // Latched: stays suspected through clean rounds, until the
  // challenge/re-announce recovery resolves it.
  police.BeginRound(100);
  police.OnFrame(0, 7);
  police.EndRound();
  EXPECT_TRUE(police.collision_suspected(0));
  police.ResetIdentity(0);
  EXPECT_FALSE(police.collision_suspected(0));
  // Re-armed, not dead: a clone returning after the reset is caught
  // again.
  for (std::size_t round = 101; round < 116; ++round) {
    police.BeginRound(round);
    police.OnFrame(0, static_cast<std::uint8_t>(round));
    police.OnFrame(0, static_cast<std::uint8_t>(round + 128));
    police.EndRound();
  }
  EXPECT_TRUE(police.collision_suspected(0));
  EXPECT_GE(police.tag_stats(0).collision_suspicions, 2u);
}

TEST(SlotPoliceTest, UnattributedFramesCountedNeverDropped) {
  SlotPolice police(Enabled(), 2);
  police.BeginRound(0);
  police.OnUnattributedFrame();
  police.OnUnattributedFrame();
  police.EndRound();
  EXPECT_EQ(police.stats().unattributed_frames, 2u);
}

TEST(SlotPoliceTest, DisabledPoliceObservesNothing) {
  PolicingConfig config;  // enabled = false
  SlotPolice police(config, 2);
  police.BeginRound(0);
  police.OnFrame(0, 1);
  police.OnFrame(0, 200);
  police.OnFrame(0, 3);
  police.OnUnattributedFrame();
  const std::vector<std::size_t> evidence = police.EndRound();
  EXPECT_EQ(evidence[0], 0u);
  EXPECT_EQ(police.stats().evidence_total, 0u);
  EXPECT_EQ(police.stats().unattributed_frames, 0u);
}

}  // namespace
