// Self-healing link supervisor (src/health/): model-based state-machine
// checks, the quarantine detection bound, the version-2 announcement
// extension codec, and byte-exact state serialization.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "health/supervisor.h"
#include "health/wire.h"
#include "mac/tag_mac.h"
#include "transport/ack.h"

using namespace freerider;
using health::HealthTransition;
using health::LinkSupervisor;
using health::RoundObservation;
using health::SupervisorConfig;
using health::TagHealth;
using health::TagRoundObservation;

namespace {

SupervisorConfig Enabled() {
  SupervisorConfig config;
  config.enabled = true;
  return config;
}

RoundObservation MakeObs(std::size_t round,
                         const std::vector<std::size_t>& frames_heard) {
  RoundObservation obs;
  obs.round = round;
  obs.singles = 0;
  for (std::size_t f : frames_heard) obs.singles += f;
  obs.tags.resize(frames_heard.size());
  for (std::size_t t = 0; t < frames_heard.size(); ++t) {
    obs.tags[t].frames_heard = frames_heard[t];
  }
  return obs;
}

/// The documented legal-transition table — the FSM may move along
/// these edges and no others. The misbehavior evidence channel adds
/// exactly one family of edges: an evidence-driven jump straight to
/// Quarantined from any other state (a flagrant offender must not get
/// to serve out Degraded/Probation first).
bool LegalTransition(TagHealth from, TagHealth to, bool misbehavior = false) {
  using H = TagHealth;
  if (misbehavior) return to == H::kQuarantined && from != H::kQuarantined;
  static const std::set<std::pair<H, H>> kLegal = {
      {H::kHealthy, H::kDegraded},    {H::kDegraded, H::kHealthy},
      {H::kDegraded, H::kProbation},  {H::kProbation, H::kRecovered},
      {H::kProbation, H::kQuarantined}, {H::kQuarantined, H::kRecovered},
      {H::kRecovered, H::kProbation}, {H::kRecovered, H::kHealthy}};
  return kLegal.count({from, to}) > 0;
}

RoundObservation MakeObsEv(std::size_t round,
                           const std::vector<std::size_t>& frames_heard,
                           const std::vector<std::size_t>& evidence) {
  RoundObservation obs = MakeObs(round, frames_heard);
  for (std::size_t t = 0; t < evidence.size(); ++t) {
    obs.tags[t].misbehavior_evidence = evidence[t];
  }
  return obs;
}

}  // namespace

// ----------------------------------------------------- detection bound

TEST(QuarantineBoundTest, MatchesDocumentedFormula) {
  SupervisorConfig config = Enabled();
  config.silent_to_probation = 6;
  config.probe_interval_rounds = 3;
  config.probe_response_rounds = 2;
  config.probe_failures_to_quarantine = 3;
  EXPECT_EQ(health::QuarantineDetectionBound(config), 6u + 3u * (3u + 2u) + 2u);
}

// ------------------------------------------------- model-based checks

// Random heard/silent sequences over several tags: every transition the
// supervisor logs must be an edge of the reference table, transitions
// into Probation must be preceded by the configured run of
// expected-but-silent rounds, and transitions into Recovered must
// coincide with a round the tag was actually heard.
TEST(HealthFsmModelTest, RandomSequencesFollowTheTransitionTable) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t num_tags = 4;
    SupervisorConfig config = Enabled();
    LinkSupervisor sup(num_tags, config);
    Rng rng(seed * 977);

    std::vector<std::size_t> model_silent(num_tags, 0);
    std::vector<TagHealth> prev_state(num_tags, TagHealth::kHealthy);
    std::size_t transitions_seen = 0;

    for (std::size_t round = 0; round < 400; ++round) {
      std::vector<std::size_t> heard(num_tags, 0);
      std::vector<bool> expected(num_tags, false);
      for (std::size_t t = 0; t < num_tags; ++t) {
        const health::TagCommand cmd = sup.command(t);
        expected[t] = cmd.admit || cmd.probe;
        // Epochs of good and bad link keep every state reachable:
        // 60-round alternation per tag, plus per-round noise.
        const bool bad_epoch = ((round / 60) + t) % 2 == 1;
        const std::size_t loss_pct = bad_epoch ? 92 : 8;
        if (expected[t] && rng.NextBelow(100) >= loss_pct) heard[t] = 1;
      }
      sup.ObserveRound(MakeObs(round, heard));
      sup.BuildExtension();

      for (std::size_t t = 0; t < num_tags; ++t) {
        if (expected[t]) {
          model_silent[t] = heard[t] > 0 ? 0 : model_silent[t] + 1;
        }
      }
      const auto& log = sup.transitions();
      for (; transitions_seen < log.size(); ++transitions_seen) {
        const HealthTransition& tr = log[transitions_seen];
        ASSERT_LT(tr.tag_id - 1, num_tags);
        const std::size_t t = tr.tag_id - 1;
        EXPECT_TRUE(LegalTransition(tr.from, tr.to, tr.misbehavior))
            << "seed " << seed << " round " << tr.round << " tag "
            << int{tr.tag_id} << ": " << health::TagHealthName(tr.from)
            << " -> " << health::TagHealthName(tr.to);
        EXPECT_EQ(tr.from, prev_state[t]);
        prev_state[t] = tr.to;
        if (tr.to == TagHealth::kProbation) {
          EXPECT_GE(model_silent[t], config.silent_to_probation)
              << "seed " << seed << " round " << tr.round;
        }
        if (tr.to == TagHealth::kRecovered) {
          EXPECT_GT(heard[t], 0u)
              << "seed " << seed << " round " << tr.round;
        }
      }
      for (std::size_t t = 0; t < num_tags; ++t) {
        EXPECT_EQ(sup.health(t), prev_state[t]);
      }
    }
    // The schedule flips between good and bad epochs, so the machinery
    // must actually have engaged.
    EXPECT_GT(transitions_seen, 0u) << "seed " << seed;
  }
}

// Quarantined is reachable only from Probation and only once the
// probe-failure budget is exhausted: with a single tag the supervisor's
// global probe-failure counter is the tag's, so every transition into
// Quarantined must be preceded by >= probe_failures_to_quarantine fresh
// failures since Probation was entered.
TEST(HealthFsmModelTest, QuarantinedOnlyAfterProbeFailureBudget) {
  SupervisorConfig config = Enabled();
  LinkSupervisor sup(1, config);
  Rng rng(4242);

  std::size_t transitions_seen = 0;
  std::size_t failures_at_probation_entry = 0;
  for (std::size_t round = 0; round < 600; ++round) {
    const health::TagCommand cmd = sup.command(0);
    const bool expected = cmd.admit || cmd.probe;
    // Long silent stretches with occasional comebacks exercise the
    // full probation -> quarantine -> recovered cycle repeatedly.
    const bool silent_epoch = (round / 45) % 2 == 1;
    std::size_t heard = 0;
    if (expected && !silent_epoch && rng.NextBelow(100) < 80) heard = 1;
    sup.ObserveRound(MakeObs(round, {heard}));
    sup.BuildExtension();

    const auto& log = sup.transitions();
    for (; transitions_seen < log.size(); ++transitions_seen) {
      const HealthTransition& tr = log[transitions_seen];
      if (tr.to == TagHealth::kProbation) {
        failures_at_probation_entry = sup.stats().probe_failures;
      }
      if (tr.to == TagHealth::kQuarantined) {
        EXPECT_EQ(tr.from, TagHealth::kProbation);
        EXPECT_GE(sup.stats().probe_failures - failures_at_probation_entry,
                  config.probe_failures_to_quarantine)
            << "round " << tr.round;
      }
    }
  }
  EXPECT_GT(sup.stats().quarantines, 0u);
  EXPECT_GT(sup.stats().recoveries, 0u);
}

// ------------------------------------------ misbehavior evidence edges

TEST(MisbehaviorBoundTest, MatchesDocumentedFormula) {
  SupervisorConfig config = Enabled();
  // Defaults: alpha 0.4, threshold 0.7 -> ceil(ln 0.3 / ln 0.6) = 3
  // evidence rounds, doubled for every-other-round evidence, +4 slack.
  EXPECT_EQ(health::MisbehaviorDetectionBound(config), 10u);
  config.misbehavior_alpha = 0.5;
  EXPECT_EQ(health::MisbehaviorDetectionBound(config), 8u);
}

// Random heard/evidence sequences: every misbehavior-marked transition
// must be an evidence-driven jump to Quarantined (the one edge family
// the channel adds), scores stay in [0, 1], and a banned tag is parked
// for good — never admitted, never probed.
TEST(HealthFsmModelTest, MisbehaviorEdgesFollowTheExtendedTable) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t num_tags = 4;
    SupervisorConfig config = Enabled();
  config.policing_enabled = true;
    LinkSupervisor sup(num_tags, config);
    Rng rng(seed * 1511);

    std::vector<TagHealth> prev_state(num_tags, TagHealth::kHealthy);
    std::size_t transitions_seen = 0;
    std::size_t misbehavior_transitions = 0;

    for (std::size_t round = 0; round < 400; ++round) {
      std::vector<std::size_t> heard(num_tags, 0);
      std::vector<std::size_t> evidence(num_tags, 0);
      for (std::size_t t = 0; t < num_tags; ++t) {
        const health::TagCommand cmd = sup.command(t);
        if ((cmd.admit || cmd.probe) && rng.NextBelow(100) < 85) heard[t] = 1;
        // Tag 1 offends in bursts, tag 3 occasionally and flagrantly;
        // the others stay honest.
        if (t == 1 && (round / 25) % 3 == 1 && rng.NextBelow(100) < 70) {
          evidence[t] = 1 + rng.NextBelow(2);
        }
        if (t == 3 && rng.NextBelow(100) < 4) evidence[t] = 5;
      }
      sup.ObserveRound(MakeObsEv(round, heard, evidence));
      sup.BuildExtension();

      const auto& log = sup.transitions();
      for (; transitions_seen < log.size(); ++transitions_seen) {
        const HealthTransition& tr = log[transitions_seen];
        ASSERT_LT(tr.tag_id - 1, num_tags);
        const std::size_t t = tr.tag_id - 1;
        EXPECT_TRUE(LegalTransition(tr.from, tr.to, tr.misbehavior))
            << "seed " << seed << " round " << tr.round << " tag "
            << int{tr.tag_id} << ": " << health::TagHealthName(tr.from)
            << " -> " << health::TagHealthName(tr.to)
            << (tr.misbehavior ? " (misbehavior)" : "");
        EXPECT_EQ(tr.from, prev_state[t]);
        prev_state[t] = tr.to;
        if (tr.misbehavior) {
          ++misbehavior_transitions;
          EXPECT_GT(evidence[t] + 1, 1u);  // evidence this round drove it
        }
      }
      for (std::size_t t = 0; t < num_tags; ++t) {
        const double score = sup.misbehavior_score(t);
        EXPECT_GE(score, 0.0);
        EXPECT_LE(score, 1.0);
        if (sup.banned(t)) {
          EXPECT_FALSE(sup.command(t).admit);
          EXPECT_FALSE(sup.command(t).probe);
          EXPECT_EQ(sup.health(t), TagHealth::kQuarantined);
        }
        // Honest tags never accumulate score, let alone strikes.
        if (t == 0 || t == 2) {
          EXPECT_EQ(sup.misbehavior_score(t), 0.0);
          EXPECT_EQ(sup.misbehavior_strikes(t), 0u);
        }
      }
    }
    EXPECT_GT(misbehavior_transitions, 0u) << "seed " << seed;
    EXPECT_GE(sup.stats().misbehavior_quarantines, misbehavior_transitions)
        << "seed " << seed;
  }
}

// The bound's two legs: continuous evidence (the EWMA leg alone) and
// evidence landing only every other round (the doubling the formula
// prices in). Both must quarantine within MisbehaviorDetectionBound of
// the *first* evidence round.
TEST(MisbehaviorBoundTest, EvidenceQuarantinesWithinBound) {
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    SupervisorConfig config = Enabled();
  config.policing_enabled = true;
    LinkSupervisor sup(1, config);
    const std::size_t first_evidence = 20;
    for (std::size_t round = 0; round < 80; ++round) {
      const bool offending =
          round >= first_evidence && (round - first_evidence) % stride == 0;
      sup.ObserveRound(MakeObsEv(round, {1}, {offending ? 1u : 0u}));
      sup.BuildExtension();
    }
    std::size_t quarantine_round = 0;
    bool found = false;
    for (const HealthTransition& tr : sup.transitions()) {
      if (tr.to == TagHealth::kQuarantined && tr.misbehavior) {
        quarantine_round = tr.round;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "stride " << stride;
    EXPECT_LE(quarantine_round - first_evidence + 1,
              health::MisbehaviorDetectionBound(config))
        << "stride " << stride;
    EXPECT_GE(sup.stats().misbehavior_quarantines, 1u);
  }
}

// A flagrant burst (evidence >= flagrant_evidence in one round) must
// not wait for the EWMA to integrate: the score saturates and the tag
// is quarantined immediately, even straight out of Healthy.
TEST(MisbehaviorBoundTest, FlagrantEvidenceQuarantinesImmediately) {
  SupervisorConfig config = Enabled();
  config.policing_enabled = true;
  LinkSupervisor sup(1, config);
  for (std::size_t round = 0; round < 5; ++round) {
    sup.ObserveRound(MakeObsEv(round, {1}, {0}));
    sup.BuildExtension();
  }
  sup.ObserveRound(MakeObsEv(5, {1}, {config.flagrant_evidence}));
  sup.BuildExtension();
  EXPECT_EQ(sup.health(0), TagHealth::kQuarantined);
  ASSERT_FALSE(sup.transitions().empty());
  const HealthTransition& tr = sup.transitions().back();
  EXPECT_TRUE(tr.misbehavior);
  EXPECT_EQ(tr.from, TagHealth::kHealthy);
  EXPECT_EQ(tr.round, 5u);
}

// Strike escalation: offend -> quarantine (strike 1) -> rehabilitate
// through decay, probation probes and readmission -> offend again ->
// strike 2 -> banned. A banned tag is parked forever: no admit, no
// probes, no way back.
TEST(HealthFsmTest, RepeatOffenderIsBannedForGood) {
  SupervisorConfig config = Enabled();
  config.policing_enabled = true;
  ASSERT_EQ(config.misbehavior_strikes_to_ban, 2u);
  LinkSupervisor sup(1, config);
  std::size_t round = 0;
  // An honest tag answering whenever the coordinator wants it.
  const auto drive = [&](std::size_t evidence) {
    const health::TagCommand cmd = sup.command(0);
    const std::size_t heard = (cmd.admit || cmd.probe) ? 1u : 0u;
    sup.ObserveRound(MakeObsEv(round++, {heard}, {evidence}));
    sup.BuildExtension();
  };
  for (; round < 10;) drive(0);
  // First offense: evidence until the misbehavior quarantine lands.
  while (sup.health(0) != TagHealth::kQuarantined) {
    ASSERT_LT(round, 60u);
    drive(1);
  }
  EXPECT_EQ(sup.misbehavior_strikes(0), 1u);
  EXPECT_FALSE(sup.banned(0));
  // Clean conduct: the score decays, the hold lifts, probes resume and
  // the tag earns readmission.
  while (sup.health(0) == TagHealth::kQuarantined) {
    ASSERT_LT(round, 300u);
    drive(0);
  }
  EXPECT_EQ(sup.health(0), TagHealth::kRecovered);
  // Relapse: the second strike is the last.
  while (!sup.banned(0)) {
    ASSERT_LT(round, 400u);
    drive(1);
  }
  EXPECT_EQ(sup.misbehavior_strikes(0), 2u);
  EXPECT_EQ(sup.health(0), TagHealth::kQuarantined);
  EXPECT_GE(sup.stats().misbehavior_quarantines, 2u);
  // Parked for good: whatever happens on the air, the ban holds.
  const std::size_t banned_at = round;
  for (; round < banned_at + 100;) drive(0);
  EXPECT_TRUE(sup.banned(0));
  EXPECT_EQ(sup.health(0), TagHealth::kQuarantined);
  EXPECT_FALSE(sup.command(0).admit);
  EXPECT_FALSE(sup.command(0).probe);
  EXPECT_EQ(sup.admitted_tags(), 0u);
}

TEST(HealthFsmTest, DeadTagQuarantinedWithinBound) {
  SupervisorConfig config = Enabled();
  LinkSupervisor sup(2, config);
  const std::size_t dead_round = 30;
  for (std::size_t round = 0; round < 100; ++round) {
    const std::size_t tag0_heard = round < dead_round ? 1 : 0;
    sup.ObserveRound(MakeObs(round, {tag0_heard, 1}));
    sup.BuildExtension();
  }
  std::size_t quarantine_round = 0;
  bool found = false;
  for (const HealthTransition& tr : sup.transitions()) {
    if (tr.tag_id == 1 && tr.to == TagHealth::kQuarantined) {
      quarantine_round = tr.round;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_LE(quarantine_round,
            dead_round - 1 + health::QuarantineDetectionBound(config));
  EXPECT_EQ(sup.health(0), TagHealth::kQuarantined);
  // The healthy neighbour never left Healthy.
  EXPECT_EQ(sup.health(1), TagHealth::kHealthy);
  // A quarantined tag is parked: not admitted, max boost for probes.
  EXPECT_FALSE(sup.command(0).admit);
  EXPECT_TRUE(sup.command(1).admit);
  EXPECT_EQ(sup.admitted_tags(), 1u);
}

TEST(HealthFsmTest, QuarantinedTagRecoversAndIsReadmittedOnce) {
  SupervisorConfig config = Enabled();
  config.quarantine_reprobe_rounds = 5;
  LinkSupervisor sup(1, config);
  std::size_t round = 0;
  // Heard, then dead long enough to be quarantined.
  for (; round < 10; ++round) {
    sup.ObserveRound(MakeObs(round, {1}));
    sup.BuildExtension();
  }
  while (sup.health(0) != TagHealth::kQuarantined) {
    ASSERT_LT(round, 200u);
    sup.ObserveRound(MakeObs(round++, {0}));
    sup.BuildExtension();
  }
  (void)sup.TakeFreshQuarantines();
  // The tag comes back: the next answered probe readmits it.
  std::vector<std::size_t> readmitted;
  while (sup.health(0) == TagHealth::kQuarantined) {
    ASSERT_LT(round, 400u);
    sup.ObserveRound(MakeObs(round++, {1}));
    sup.BuildExtension();
    const auto fresh = sup.TakeFreshReadmissions();
    readmitted.insert(readmitted.end(), fresh.begin(), fresh.end());
  }
  EXPECT_EQ(sup.health(0), TagHealth::kRecovered);
  ASSERT_EQ(readmitted.size(), 1u);
  EXPECT_EQ(readmitted[0], 0u);
  // Consumed on read: a second take is empty.
  EXPECT_TRUE(sup.TakeFreshReadmissions().empty());
  // Sustained clean service completes the recovery.
  for (std::size_t i = 0; i < 4 * config.recovered_hold_rounds; ++i) {
    sup.ObserveRound(MakeObs(round++, {1}));
    sup.BuildExtension();
  }
  EXPECT_EQ(sup.health(0), TagHealth::kHealthy);
  EXPECT_GE(sup.stats().readmissions, 1u);
}

// -------------------------------------------------------- wire format

TEST(HealthWireTest, RoundTripsAcksAndCommands) {
  mac::RoundAnnouncement round;
  round.slots = 9;
  round.sequence = 123;
  transport::AckExtension acks;
  for (std::size_t i = 0; i < health::kMaxAckBlocksV2; ++i) {
    acks.acks.push_back({static_cast<std::uint8_t>(i + 1),
                         static_cast<std::uint8_t>(40 * i + 7),
                         static_cast<std::uint16_t>(0xC3A5u >> i)});
  }
  health::HealthExtension cmds;
  for (std::size_t i = 0; i < health::kMaxHealthBlocks; ++i) {
    health::TagCommand cmd;
    cmd.tag_id = static_cast<std::uint8_t>(i + 1);
    cmd.admit = i % 2 == 0;
    cmd.probe = i % 3 == 0;
    cmd.boost_steps = static_cast<std::uint8_t>(i % (health::kMaxBoostSteps + 1));
    cmds.commands.push_back(cmd);
  }
  const BitVector payload =
      health::BuildAnnouncementHealth(round, acks, cmds);
  const auto parsed = health::ParseAnnouncementHealth(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->ext_rejected);
  EXPECT_EQ(parsed->round.slots, round.slots);
  EXPECT_EQ(parsed->round.sequence, round.sequence);
  ASSERT_TRUE(parsed->acks.has_value());
  ASSERT_EQ(parsed->acks->acks.size(), acks.acks.size());
  for (std::size_t i = 0; i < acks.acks.size(); ++i) {
    EXPECT_EQ(parsed->acks->acks[i].tag_id, acks.acks[i].tag_id);
    EXPECT_EQ(parsed->acks->acks[i].cumulative, acks.acks[i].cumulative);
    EXPECT_EQ(parsed->acks->acks[i].nack_bitmap, acks.acks[i].nack_bitmap);
  }
  ASSERT_TRUE(parsed->health.has_value());
  EXPECT_EQ(parsed->health->commands, cmds.commands);
}

TEST(HealthWireTest, DropsBlocksBeyondTheCaps) {
  mac::RoundAnnouncement round;
  round.slots = 4;
  round.sequence = 1;
  transport::AckExtension acks;
  for (std::size_t i = 0; i < health::kMaxAckBlocksV2 + 3; ++i) {
    acks.acks.push_back({static_cast<std::uint8_t>(i + 1), 0, 0});
  }
  health::HealthExtension cmds;
  for (std::size_t i = 0; i < health::kMaxHealthBlocks + 3; ++i) {
    health::TagCommand cmd;
    cmd.tag_id = static_cast<std::uint8_t>(i + 1);
    cmds.commands.push_back(cmd);
  }
  const auto parsed = health::ParseAnnouncementHealth(
      health::BuildAnnouncementHealth(round, acks, cmds));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->acks.has_value());
  ASSERT_TRUE(parsed->health.has_value());
  EXPECT_EQ(parsed->acks->acks.size(), health::kMaxAckBlocksV2);
  EXPECT_EQ(parsed->health->commands.size(), health::kMaxHealthBlocks);
}

// Every single-bit corruption of the extension is either caught by the
// CRC (ext_rejected, good prefix) or hits the prefix itself — it must
// never parse as a *different* valid extension.
TEST(HealthWireTest, SingleBitFlipsNeverForgeAnExtension) {
  mac::RoundAnnouncement round;
  round.slots = 7;
  round.sequence = 55;
  transport::AckExtension acks;
  acks.acks.push_back({1, 10, 0x0003});
  health::HealthExtension cmds;
  health::TagCommand cmd;
  cmd.tag_id = 2;
  cmd.admit = false;
  cmd.probe = true;
  cmd.boost_steps = 3;
  cmds.commands.push_back(cmd);
  const BitVector payload =
      health::BuildAnnouncementHealth(round, acks, cmds);
  const std::size_t prefix_bits = 16;
  for (std::size_t bit = prefix_bits; bit < payload.size(); ++bit) {
    BitVector corrupted = payload;
    corrupted[bit] ^= 1;
    const auto parsed = health::ParseAnnouncementHealth(corrupted);
    ASSERT_TRUE(parsed.has_value()) << "bit " << bit;
    EXPECT_TRUE(parsed->ext_rejected) << "bit " << bit;
    EXPECT_FALSE(parsed->acks.has_value()) << "bit " << bit;
    EXPECT_FALSE(parsed->health.has_value()) << "bit " << bit;
    EXPECT_EQ(parsed->round.slots, round.slots);
    EXPECT_EQ(parsed->round.sequence, round.sequence);
  }
}

TEST(HealthWireTest, LegacyAndVersion1PayloadsStillParse) {
  mac::RoundAnnouncement round;
  round.slots = 11;
  round.sequence = 77;
  // Bare 16-bit legacy announcement: no extension, nothing rejected.
  const auto legacy = health::ParseAnnouncementHealth(
      mac::BuildAnnouncement(round));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_FALSE(legacy->ext_rejected);
  EXPECT_FALSE(legacy->acks.has_value());
  EXPECT_FALSE(legacy->health.has_value());
  EXPECT_EQ(legacy->round.slots, round.slots);

  // Version-1 (pure ACK) extension from a pre-supervisor coordinator:
  // the upgraded receiver still gets the ACK feedback.
  transport::AckExtension acks;
  acks.acks.push_back({3, 200, 0x00F0});
  const auto v1 = health::ParseAnnouncementHealth(
      transport::BuildAnnouncementExtended(round, acks));
  ASSERT_TRUE(v1.has_value());
  EXPECT_FALSE(v1->ext_rejected);
  ASSERT_TRUE(v1->acks.has_value());
  ASSERT_EQ(v1->acks->acks.size(), 1u);
  EXPECT_EQ(v1->acks->acks[0].tag_id, 3);
  EXPECT_EQ(v1->acks->acks[0].cumulative, 200);
  EXPECT_FALSE(v1->health.has_value());
}
