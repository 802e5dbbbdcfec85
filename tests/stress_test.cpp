// Time-varying channel dynamics (src/impair/dynamics) and the stress
// campaign harness (src/sim/stress): determinism, checkpoint-grade
// serialization, and the audited supervisor contract on a small
// campaign.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "impair/dynamics.h"
#include "sim/stress.h"

using namespace freerider;
using impair::BlackoutWindow;
using impair::ChannelDynamics;
using impair::DynamicsConfig;

namespace {

DynamicsConfig BusyDynamics() {
  DynamicsConfig config;
  config.seed = 0xD15EA5Eull;
  config.gilbert.enabled = true;
  config.gilbert.p_good_to_bad = 0.05;
  config.gilbert.p_bad_to_good = 0.15;
  config.gilbert.good_loss = 0.02;
  config.gilbert.bad_loss = 0.9;
  config.mobility.enabled = true;
  config.mobility.per_tag_phase_rounds = 7;
  config.mobility.loss_per_excess = 0.5;
  config.mobility.waypoints = {{0, 1.0}, {40, 1.5}, {80, 1.0}};
  BlackoutWindow w;
  w.begin_round = 20;
  w.end_round = 30;
  w.tags = {1};
  config.blackouts = {w};
  return config;
}

/// Canonical trace of a dynamics run — two runs agree iff equal.
std::string DynamicsTrace(ChannelDynamics& dyn, std::size_t from_round,
                          std::size_t rounds) {
  std::string trace;
  for (std::size_t r = from_round; r < from_round + rounds; ++r) {
    dyn.BeginRound(r);
    for (std::size_t t = 0; t < dyn.num_tags(); ++t) {
      const impair::LinkState& link = dyn.link(t);
      trace += link.blackout ? 'B' : (link.bad_state ? 'b' : 'g');
      for (std::size_t slot = 0; slot < 3; ++slot) {
        trace += dyn.FrameSurvives(t, slot, 1 + slot % 3) ? '1' : '0';
      }
    }
    trace += '\n';
  }
  return trace;
}

/// Small-but-complete stress campaign: fades + mobility + a blackout +
/// one dead tag, sized to run in a couple of seconds.
sim::StressConfig SmallStress(bool supervisor_on) {
  sim::StressConfig config;
  config.seed = 97;
  config.num_tags = 3;
  config.rounds = 150;
  config.drain_rounds = 80;
  config.offer_every = 4;
  config.supervisor_on = supervisor_on;
  config.transport.max_transmissions = 16;
  config.transport.expiry_rounds = 1000000;
  config.transport.queue_capacity = 24;
  config.transport.hole_skip_rounds = 96;
  config.dynamics.seed = 0xBADC0FFEEull;
  config.dynamics.gilbert.enabled = true;
  config.dynamics.gilbert.p_good_to_bad = 0.01;
  config.dynamics.gilbert.p_bad_to_good = 0.08;
  config.dynamics.gilbert.good_loss = 0.02;
  config.dynamics.gilbert.bad_loss = 0.9;
  BlackoutWindow w;
  w.begin_round = 40;
  w.end_round = 60;
  w.tags = {1};
  config.dynamics.blackouts = {w};
  config.dead_tag = 2;
  config.dead_round = 100;
  return config;
}

}  // namespace

// ----------------------------------------------------------- dynamics

TEST(ChannelDynamicsTest, IdenticalConfigsProduceIdenticalTraces) {
  ChannelDynamics a(BusyDynamics(), 4);
  ChannelDynamics b(BusyDynamics(), 4);
  EXPECT_EQ(DynamicsTrace(a, 0, 100), DynamicsTrace(b, 0, 100));
}

TEST(ChannelDynamicsTest, FrameSurvivalIsAPureFunctionOfItsInputs) {
  ChannelDynamics dyn(BusyDynamics(), 2);
  dyn.BeginRound(25);
  for (std::size_t slot = 0; slot < 8; ++slot) {
    const bool first = dyn.FrameSurvives(0, slot, 2);
    EXPECT_EQ(dyn.FrameSurvives(0, slot, 2), first) << "slot " << slot;
  }
}

TEST(ChannelDynamicsTest, DisabledConfigDrawsNothingAndNeverFades) {
  ChannelDynamics dyn(DynamicsConfig{}, 3);
  EXPECT_FALSE(dyn.enabled());
  for (std::size_t r = 0; r < 50; ++r) {
    dyn.BeginRound(r);
    for (std::size_t t = 0; t < 3; ++t) {
      EXPECT_FALSE(dyn.link(t).blackout);
      EXPECT_EQ(dyn.link(t).loss_probability, 0.0);
      EXPECT_TRUE(dyn.FrameSurvives(t, 0, 1));
    }
  }
}

TEST(ChannelDynamicsTest, BlackoutWindowsCoverExactlyTheirRounds) {
  ChannelDynamics dyn(BusyDynamics(), 3);
  for (std::size_t r = 0; r < 40; ++r) {
    dyn.BeginRound(r);
    const bool expect_blackout = r >= 20 && r < 30;
    EXPECT_EQ(dyn.link(1).blackout, expect_blackout) << "round " << r;
    EXPECT_FALSE(dyn.link(0).blackout) << "round " << r;
    EXPECT_FALSE(dyn.link(2).blackout) << "round " << r;
  }
  EXPECT_EQ(dyn.BlackoutRounds(1, 40), 10u);
  EXPECT_EQ(dyn.BlackoutRounds(0, 40), 0u);
}

TEST(ChannelDynamicsTest, MobilityInterpolatesBetweenWaypoints) {
  DynamicsConfig config;
  config.mobility.enabled = true;
  config.mobility.waypoints = {{0, 1.0}, {10, 2.0}, {20, 1.0}};
  ChannelDynamics dyn(config, 1);
  dyn.BeginRound(0);
  EXPECT_DOUBLE_EQ(dyn.link(0).distance_factor, 1.0);
  dyn.BeginRound(5);
  EXPECT_DOUBLE_EQ(dyn.link(0).distance_factor, 1.5);
  dyn.BeginRound(10);
  EXPECT_DOUBLE_EQ(dyn.link(0).distance_factor, 2.0);
  dyn.BeginRound(15);
  EXPECT_DOUBLE_EQ(dyn.link(0).distance_factor, 1.5);
  dyn.BeginRound(30);  // flat past the last knot
  EXPECT_DOUBLE_EQ(dyn.link(0).distance_factor, 1.0);
}

TEST(ChannelDynamicsTest, SnapshotContinuesBitIdentically) {
  ChannelDynamics original(BusyDynamics(), 4);
  DynamicsTrace(original, 0, 60);
  const std::string snapshot = original.Serialize();
  // Captured once — BeginRound only ever steps forward, so the
  // original cannot be replayed.
  const std::string tail = DynamicsTrace(original, 60, 60);

  ChannelDynamics restored(BusyDynamics(), 4);
  ASSERT_TRUE(restored.Deserialize(snapshot));
  EXPECT_EQ(DynamicsTrace(restored, 60, 60), tail);

  // Corrupt payloads are rejected and leave the target usable.
  ChannelDynamics victim(BusyDynamics(), 4);
  for (std::size_t cut = 0; cut < snapshot.size(); cut += 3) {
    EXPECT_FALSE(victim.Deserialize(snapshot.substr(0, cut)));
  }
  EXPECT_FALSE(victim.Deserialize(snapshot + std::string(1, 'x')));
  ASSERT_TRUE(victim.Deserialize(snapshot));
  EXPECT_EQ(DynamicsTrace(victim, 60, 60), tail);
}

// ------------------------------------------------------ stress harness

TEST(StressCampaignTest, RerunIsDigestIdenticalAndPassesItsAudits) {
  const sim::StressConfig config = SmallStress(true);
  const sim::StressResult first = sim::RunStress(config);
  const sim::StressResult second = sim::RunStress(config);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_FALSE(first.digest.empty());

  // Audited contract on the supervisor-on run.
  EXPECT_TRUE(first.passed)
      << first.violations.Digest();
  EXPECT_GT(first.offered, 0u);
  EXPECT_GT(first.delivered, 0u);
  ASSERT_TRUE(first.dead_tag_audited);
  EXPECT_TRUE(first.quarantine_bound_met)
      << "detection " << first.detection_rounds << " bound "
      << first.detection_bound;
  EXPECT_LE(first.detection_rounds, first.detection_bound);
  EXPECT_GT(first.quarantines, 0u);
}

TEST(StressCampaignTest, SupervisorOffStillHoldsTransportInvariants) {
  const sim::StressResult result = sim::RunStress(SmallStress(false));
  // No supervisor: no quarantines, no audit — but the transport's
  // no-duplicate / no-reorder contract must hold on its own.
  EXPECT_TRUE(result.passed)
      << result.violations.Digest();
  EXPECT_FALSE(result.dead_tag_audited);
  EXPECT_EQ(result.quarantines, 0u);
  EXPECT_EQ(result.probes_sent, 0u);
}

TEST(StressResultSerializeTest, RoundTripsBitExactly) {
  sim::StressResult result;
  result.passed = false;
  result.delivery_ratio = 0.87654321;
  result.offered = 1234;
  result.delivered = 1100;
  result.expired = 12;
  result.rejected_full = 3;
  result.duplicates = 44;
  result.skipped = 5;
  result.faded_frames = 678;
  result.blackout_tag_rounds = 90;
  result.quarantines = 2;
  result.recoveries = 7;
  result.probes_sent = 31;
  result.boost_commands = 400;
  result.resyncs = 1;
  result.ooo_evicted = 6;
  result.dead_tag_audited = true;
  result.quarantine_bound_met = false;
  result.quarantine_round = 421;
  result.detection_rounds = 29;
  result.detection_bound = 23;
  result.violations.Add(421, "quarantine_late", "tag=6");
  result.violations.Add(7, "duplicate", "tag=2 seq=9");
  result.digest = "stress ratio=0x1.cp-1 ...\n";

  const std::string payload = sim::SerializeStressResult(result);
  sim::StressResult restored;
  ASSERT_TRUE(sim::DeserializeStressResult(payload, &restored));
  EXPECT_EQ(sim::SerializeStressResult(restored), payload);
  EXPECT_EQ(restored.passed, result.passed);
  EXPECT_EQ(restored.delivery_ratio, result.delivery_ratio);
  EXPECT_EQ(restored.skipped, result.skipped);
  EXPECT_EQ(restored.quarantine_round, result.quarantine_round);
  ASSERT_EQ(restored.violations.total(), 2u);
  EXPECT_EQ(restored.violations.records()[0].kind, "quarantine_late");
  EXPECT_EQ(restored.violations.records()[1].detail, "tag=2 seq=9");
  EXPECT_EQ(restored.digest, result.digest);

  // Truncations and trailing bytes never load.
  sim::StressResult scratch;
  for (std::size_t cut = 0; cut < payload.size(); cut += 5) {
    EXPECT_FALSE(
        sim::DeserializeStressResult(payload.substr(0, cut), &scratch));
  }
  EXPECT_FALSE(
      sim::DeserializeStressResult(payload + std::string(1, '\0'), &scratch));
}
