#include <gtest/gtest.h>

#include "sim/multitag.h"

namespace freerider::sim {
namespace {

TEST(FullStack, SingleTagDeliversEveryRound) {
  Rng rng(1);
  FullStackConfig config;
  config.num_tags = 1;
  config.rounds = 4;
  config.adjust.initial_slots = 4;
  const FullStackStats stats = RunFullStackCampaign(config, rng);
  // One tag, strong link: it should deliver in (almost) every round it
  // heard the announcement; PLM at -38 dBm is essentially lossless.
  EXPECT_GE(stats.deliveries, 3u);
  EXPECT_EQ(stats.observed_collisions, 0u);
  EXPECT_EQ(stats.per_tag_deliveries[0], stats.deliveries);
}

TEST(FullStack, MultipleTagsAllDeliverEventually) {
  Rng rng(2);
  FullStackConfig config;
  config.num_tags = 5;
  config.rounds = 8;
  const FullStackStats stats = RunFullStackCampaign(config, rng);
  // Every tag gets through at least once over 8 rounds.
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    EXPECT_GE(stats.per_tag_deliveries[t], 1u) << "tag " << t;
  }
  EXPECT_GT(stats.goodput_bps, 0.0);
  EXPECT_GT(stats.jain_fairness, 0.5);
}

TEST(FullStack, CollisionsAreObservedNotOracular) {
  // With many tags and few slots, collisions must show up in the
  // coordinator's *decode-based* observations.
  Rng rng(3);
  FullStackConfig config;
  config.num_tags = 8;
  config.rounds = 3;
  config.adjust.initial_slots = 4;
  config.adjust.min_slots = 4;
  config.adjust.max_slots = 4;  // force congestion
  const FullStackStats stats = RunFullStackCampaign(config, rng);
  EXPECT_GT(stats.observed_collisions, 0u);
}

TEST(FullStack, SchedulerGrowsUnderCongestion) {
  Rng rng(4);
  FullStackConfig congested;
  congested.num_tags = 10;
  congested.rounds = 5;
  congested.adjust.initial_slots = 4;
  const FullStackStats stats = RunFullStackCampaign(congested, rng);
  // With 10 tags starting at 4 slots, the scheduler must have widened
  // the frame: total slots exceed rounds * initial.
  EXPECT_GT(stats.slots_total, congested.rounds * 4u);
}

TEST(FullStack, WeakLinkKillsDeliveries) {
  Rng rng(5);
  FullStackConfig config;
  config.num_tags = 2;
  config.rounds = 3;
  config.backscatter_rx_dbm = -120.0;  // far below the noise floor
  const FullStackStats stats = RunFullStackCampaign(config, rng);
  EXPECT_EQ(stats.deliveries, 0u);
}

// With the supervisor on, the version-2 announcement holds at most
// kMaxAckBlocksV2 ACK blocks. A coordinator configured for more blocks
// per round must rotate by what was announced, not by what it built:
// otherwise the blocks past the cap are never aired and the tags they
// belong to are never acknowledged.
TEST(FullStack, SupervisorAckRotationReachesEveryTag) {
  Rng rng(7);
  FullStackConfig config;
  config.num_tags = 6;
  config.transport.enabled = true;
  config.transport.ack_blocks_per_round = 6;
  config.supervisor.enabled = true;
  FullStackSim sim(config, rng);
  for (std::size_t round = 0; round < 80; ++round) sim.StepRound();
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    EXPECT_GT(sim.tag_transport(t)->stats().acked, 0u) << "tag " << t;
  }
}

}  // namespace
}  // namespace freerider::sim
