// Chaos-soak harness: invariants, deterministic digests, and the JSON
// replay pipeline (sim/soak.h).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "sim/multitag.h"
#include "sim/soak.h"

using namespace freerider;

namespace {

/// Small but non-trivial soak: two impairment regimes, loss inside the
/// transport's envelope, give-up caps out of reach.
sim::SoakConfig SurvivableConfig(std::uint64_t seed) {
  sim::SoakConfig config;
  config.seed = seed;
  config.num_tags = 3;
  config.rounds = 40;
  config.drain_rounds = 40;
  config.offer_every = 4;
  config.transport.max_transmissions = 1000;
  config.transport.expiry_rounds = 1 << 20;
  config.transport.hole_skip_rounds = 1 << 20;
  sim::SoakSegment clean;
  clean.start_round = 0;
  sim::SoakSegment lossy;
  lossy.start_round = 20;
  lossy.impairments.dropout.enabled = true;
  lossy.impairments.dropout.dropout_probability = 0.2;
  lossy.impairments.dropout.min_keep_fraction = 0.2;
  lossy.impairments.dropout.max_keep_fraction = 0.8;
  sim::SoakSegment bursty;
  bursty.start_round = 45;
  bursty.impairments.interferer.enabled = true;
  bursty.impairments.interferer.burst_probability = 0.15;
  bursty.impairments.interferer.burst_power_dbm = -74.0;
  config.schedule = {clean, lossy, bursty};
  return config;
}

/// Engineered to violate: one transmission, no second chances, heavy
/// dropout — frames must expire (a strict-mode violation).
sim::SoakConfig BrokenConfig() {
  sim::SoakConfig config;
  config.seed = 77;
  config.num_tags = 3;
  config.rounds = 40;
  config.drain_rounds = 30;
  config.offer_every = 2;
  config.transport.max_transmissions = 1;
  config.transport.rto_rounds = 1;
  sim::SoakSegment harsh;
  harsh.start_round = 0;
  harsh.impairments.dropout.enabled = true;
  harsh.impairments.dropout.dropout_probability = 0.5;
  harsh.impairments.dropout.min_keep_fraction = 0.1;
  harsh.impairments.dropout.max_keep_fraction = 0.5;
  config.schedule = {harsh};
  return config;
}

}  // namespace

TEST(SoakTest, SurvivableScheduleMeetsEveryInvariant) {
  const sim::SoakResult result = sim::RunSoak(SurvivableConfig(11));
  EXPECT_TRUE(result.passed) << result.digest;
  EXPECT_EQ(result.violations.total(), 0u);
  EXPECT_GT(result.stats.transport_offered, 0u);
  EXPECT_EQ(result.stats.transport_offered, result.stats.transport_delivered);
  EXPECT_EQ(result.stats.transport_expired, 0u);
  EXPECT_EQ(result.stats.transport_holes_skipped, 0u);
  EXPECT_GT(result.stats.faults_injected, 0u);  // the chaos was real
}

TEST(SoakTest, DigestIsDeterministic) {
  const sim::SoakConfig config = SurvivableConfig(23);
  const sim::SoakResult a = sim::RunSoak(config);
  const sim::SoakResult b = sim::RunSoak(config);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_FALSE(a.digest.empty());
}

TEST(SoakTest, ReplayRecordRoundTripsAndReproduces) {
  const sim::SoakConfig config = SurvivableConfig(31);
  const sim::SoakResult original = sim::RunSoak(config);
  const std::string json = sim::SoakReplayJson(config, original);

  const auto replay = sim::ParseSoakReplay(json);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->expect_digest, original.digest);
  EXPECT_EQ(replay->config.seed, config.seed);
  EXPECT_EQ(replay->config.num_tags, config.num_tags);
  EXPECT_EQ(replay->config.rounds, config.rounds);
  ASSERT_EQ(replay->config.schedule.size(), config.schedule.size());
  EXPECT_EQ(replay->config.schedule[1].impairments.dropout.dropout_probability,
            config.schedule[1].impairments.dropout.dropout_probability);

  const sim::SoakResult again = sim::RunSoak(replay->config);
  EXPECT_EQ(again.digest, original.digest);
}

TEST(SoakTest, ReplayRecordCarriesTheReplayGuardKnobs) {
  sim::SoakConfig config = SurvivableConfig(37);
  config.rounds = 12;
  config.transport.replay_guard = false;
  config.transport.replay_stale_behind = 32;
  const sim::SoakResult original = sim::RunSoak(config);
  const std::string json = sim::SoakReplayJson(config, original);
  EXPECT_NE(json.find("\"replay_guard\":false"), std::string::npos);
  EXPECT_NE(json.find("\"replay_stale_behind\":32"), std::string::npos);

  const auto replay = sim::ParseSoakReplay(json);
  ASSERT_TRUE(replay.has_value());
  EXPECT_FALSE(replay->config.transport.replay_guard);
  EXPECT_EQ(replay->config.transport.replay_stale_behind, 32u);
  EXPECT_EQ(sim::RunSoak(replay->config).digest, original.digest);
}

TEST(SoakTest, ReplayRecordWithoutGuardKnobsReadsTheDefaults) {
  // Default knobs are not written at all, so a default record keeps
  // the bytes it had before the knobs existed, and reads back as them.
  sim::SoakConfig config = SurvivableConfig(41);
  config.rounds = 6;
  const std::string json =
      sim::SoakReplayJson(config, sim::RunSoak(config));
  EXPECT_EQ(json.find("replay_guard"), std::string::npos);
  EXPECT_EQ(json.find("replay_stale_behind"), std::string::npos);
  const transport::TransportConfig defaults;
  const auto replay = sim::ParseSoakReplay(json);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->config.transport.replay_guard, defaults.replay_guard);
  EXPECT_EQ(replay->config.transport.replay_stale_behind,
            defaults.replay_stale_behind);

  std::string bad = json;
  bad.replace(bad.find("\"hole_skip_rounds\""), 0,
              "\"replay_guard\":7,");
  std::string why;
  EXPECT_FALSE(sim::ParseSoakReplay(bad, &why).has_value());
  EXPECT_NE(why.find("replay_guard"), std::string::npos) << why;
}

TEST(SoakTest, DeliberateViolationReproducesBitForBit) {
  const sim::SoakConfig config = BrokenConfig();
  const sim::SoakResult original = sim::RunSoak(config);
  ASSERT_FALSE(original.passed);
  ASSERT_GT(original.violations.total(), 0u);
  EXPECT_EQ(original.violations.records()[0].kind, "expired");

  const std::string record = sim::SoakReplayJson(config, original);
  const auto replay = sim::ParseSoakReplay(record);
  ASSERT_TRUE(replay.has_value());
  const sim::SoakResult again = sim::RunSoak(replay->config);
  EXPECT_FALSE(again.passed);
  EXPECT_EQ(again.digest, original.digest);
  EXPECT_EQ(again.violations.total(), original.violations.total());
}

TEST(SoakTest, NonStrictModeToleratesGiveUps) {
  sim::SoakConfig config = BrokenConfig();
  config.strict = false;
  const sim::SoakResult result = sim::RunSoak(config);
  // Give-ups (expiry, skips) are allowed; duplicates/reorder are not.
  for (const sim::CampaignViolation& v : result.violations.records()) {
    EXPECT_NE(v.kind, "duplicate") << v.detail;
    EXPECT_NE(v.kind, "reorder") << v.detail;
  }
  EXPECT_GT(result.stats.transport_expired, 0u);
}

TEST(SoakTest, StrictModeReportsEveryHoleSkip) {
  // bench_soak_arq's replay self-check schedule: expiries leave holes
  // the receiver skips, most of them with frames queued behind.
  sim::SoakConfig config = BrokenConfig();
  config.rounds = 150;
  config.drain_rounds = 100;
  const sim::SoakResult result = sim::RunSoak(config);
  std::size_t skips = 0;
  for (const sim::CampaignViolation& v : result.violations.records()) {
    if (v.kind == "skip") ++skips;
  }
  EXPECT_GT(result.stats.transport_holes_skipped, 0u);
  EXPECT_EQ(skips, result.stats.transport_holes_skipped);
}

TEST(SoakReplayParserTest, RejectsMalformedRecords) {
  const sim::SoakConfig config = SurvivableConfig(1);
  sim::SoakResult result;
  result.digest = "digest with \"quotes\"\nand newlines";
  const std::string valid = sim::SoakReplayJson(config, result);
  ASSERT_TRUE(sim::ParseSoakReplay(valid).has_value());

  EXPECT_FALSE(sim::ParseSoakReplay("").has_value());
  EXPECT_FALSE(sim::ParseSoakReplay("not json at all").has_value());
  EXPECT_FALSE(sim::ParseSoakReplay("{}").has_value());
  EXPECT_FALSE(sim::ParseSoakReplay("[1,2,3]").has_value());
  // Every strict prefix must be rejected, never crash or accept.
  for (std::size_t n = 0; n < valid.size(); n += 7) {
    EXPECT_FALSE(sim::ParseSoakReplay(valid.substr(0, n)).has_value())
        << "prefix " << n;
  }
  // Wrong version.
  std::string wrong = valid;
  wrong.replace(wrong.find("\"version\": 1"), 12, "\"version\": 9");
  EXPECT_FALSE(sim::ParseSoakReplay(wrong).has_value());
  // Hostile bounds: a record demanding a billion rounds is refused.
  std::string huge = valid;
  huge.replace(huge.find("\"rounds\": 40"), 12, "\"rounds\": 99999999999");
  EXPECT_FALSE(sim::ParseSoakReplay(huge).has_value());
}

TEST(SoakReplayParserTest, RejectsDuplicateKeysWithClearError) {
  const sim::SoakConfig config = SurvivableConfig(3);
  const std::string valid = sim::SoakReplayJson(config, {});
  // Duplicate a top-level field: a lenient parser would let the second
  // value shadow the first; ours must refuse and say why.
  std::string dup = valid;
  dup.replace(dup.find("\"num_tags\": 3"), 13,
              "\"num_tags\": 3, \"num_tags\": 5");
  std::string error;
  EXPECT_FALSE(sim::ParseSoakReplay(dup, &error).has_value());
  EXPECT_NE(error.find("duplicate key"), std::string::npos) << error;
  EXPECT_NE(error.find("num_tags"), std::string::npos) << error;
}

TEST(SoakReplayParserTest, RejectsOutOfRangeFieldsNamingTheOffender) {
  const sim::SoakConfig config = SurvivableConfig(3);
  const std::string valid = sim::SoakReplayJson(config, {});
  ASSERT_TRUE(sim::ParseSoakReplay(valid).has_value());

  struct Case {
    const char* find;
    const char* replace;
    const char* expect_in_error;
  };
  const Case cases[] = {
      {"\"num_tags\": 3", "\"num_tags\": 0", "num_tags"},
      {"\"num_tags\": 3", "\"num_tags\": 100", "num_tags"},
      {"\"offer_every\": 4", "\"offer_every\": 99999999", "offer_every"},
      {"\"window\":16", "\"window\":0", "transport.window"},
      {"\"window\":16", "\"window\":1000", "transport.window"},
      {"\"max_transmissions\":1000", "\"max_transmissions\":0",
       "transport.max_transmissions"},
      {"\"rto_rounds\":3", "\"rto_rounds\":9999999999",
       "transport.rto_rounds"},
  };
  for (const Case& c : cases) {
    std::string bad = valid;
    const std::size_t at = bad.find(c.find);
    ASSERT_NE(at, std::string::npos) << c.find;
    bad.replace(at, std::strlen(c.find), c.replace);
    std::string error;
    EXPECT_FALSE(sim::ParseSoakReplay(bad, &error).has_value()) << c.replace;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << c.replace << " -> " << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
}

TEST(SoakReplayParserTest, RejectsUnsortedScheduleAndNonFiniteDoubles) {
  sim::SoakConfig config = SurvivableConfig(3);
  // Swap two segments out of order; the writer emits them as-is.
  std::swap(config.schedule[1], config.schedule[2]);
  std::string error;
  EXPECT_FALSE(
      sim::ParseSoakReplay(sim::SoakReplayJson(config, {}), &error)
          .has_value());
  EXPECT_NE(error.find("not ascending"), std::string::npos) << error;

  // An overflowing double literal (parses to inf) is refused.
  std::string inf = sim::SoakReplayJson(SurvivableConfig(3), {});
  const std::string key = "\"burst_probability\":";
  const std::size_t at = inf.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = inf.find(',', at);
  ASSERT_NE(end, std::string::npos);
  inf.replace(at, end - at, key + "1e999");
  EXPECT_FALSE(sim::ParseSoakReplay(inf, &error).has_value());
}

TEST(SoakResultCodec, RoundTripsBitExactly) {
  const sim::SoakConfig config = SurvivableConfig(4);
  const sim::SoakResult original = sim::RunSoak(config);
  const std::string payload = sim::SerializeSoakResult(original);
  sim::SoakResult restored;
  ASSERT_TRUE(sim::DeserializeSoakResult(payload, &restored));
  EXPECT_EQ(restored.passed, original.passed);
  EXPECT_EQ(restored.digest, original.digest);
  EXPECT_EQ(restored.violations.total(), original.violations.total());
  EXPECT_EQ(restored.stats.transport_delivered,
            original.stats.transport_delivered);
  EXPECT_EQ(restored.stats.per_tag_deliveries,
            original.stats.per_tag_deliveries);
  EXPECT_EQ(restored.stats.fault_counters.total(),
            original.stats.fault_counters.total());
  // The serialized form itself is deterministic (checkpoint currency).
  EXPECT_EQ(sim::SerializeSoakResult(restored), payload);

  // Violations round-trip with their strings intact.
  sim::SoakResult with_violations = original;
  with_violations.violations.Add(17, "duplicate", "tag=1 seq=9");
  with_violations.passed = false;
  sim::SoakResult again;
  ASSERT_TRUE(sim::DeserializeSoakResult(
      sim::SerializeSoakResult(with_violations), &again));
  ASSERT_EQ(again.violations.total(), with_violations.violations.total());
  EXPECT_EQ(again.violations.records().back().kind, "duplicate");
  EXPECT_EQ(again.violations.records().back().detail, "tag=1 seq=9");

  // Truncations and garbage never crash the decoder.
  for (std::size_t n = 0; n < payload.size(); n += 11) {
    sim::SoakResult scratch;
    EXPECT_FALSE(
        sim::DeserializeSoakResult(payload.substr(0, n), &scratch));
  }
}

TEST(SoakReplayParserTest, DigestStringEscapingRoundTrips) {
  const sim::SoakConfig config = SurvivableConfig(2);
  sim::SoakResult result;
  result.digest = "line1\nline2 \"quoted\" back\\slash\ttab";
  const auto replay = sim::ParseSoakReplay(sim::SoakReplayJson(config, result));
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->expect_digest, result.digest);
}

// The stepping simulator must be the same machine as the one-shot
// campaign — same master-stream discipline, same stats — so harness
// results transfer to every existing RunFullStackCampaign caller.
TEST(SteppedSimTest, MatchesCampaignWithTransportDisabled) {
  sim::FullStackConfig config;
  config.num_tags = 3;
  config.rounds = 4;
  config.impairments.dropout.enabled = true;
  config.impairments.dropout.dropout_probability = 0.3;
  Rng campaign_rng(91);
  const sim::FullStackStats campaign =
      sim::RunFullStackCampaign(config, campaign_rng);

  Rng stepped_rng(91);
  sim::FullStackSim stepped(config, stepped_rng);
  for (std::size_t round = 0; round < config.rounds; ++round) {
    stepped.StepRound();
  }
  const sim::FullStackStats stats = stepped.Stats();

  EXPECT_EQ(stats.deliveries, campaign.deliveries);
  EXPECT_EQ(stats.slots_total, campaign.slots_total);
  EXPECT_EQ(stats.observed_collisions, campaign.observed_collisions);
  EXPECT_EQ(stats.observed_empties, campaign.observed_empties);
  EXPECT_EQ(stats.faults_injected, campaign.faults_injected);
  EXPECT_EQ(stats.airtime_s, campaign.airtime_s);      // bit-exact
  EXPECT_EQ(stats.goodput_bps, campaign.goodput_bps);  // bit-exact
  EXPECT_EQ(campaign_rng.NextU64(), stepped_rng.NextU64());
}

// With the transport off, reserving the impairment stream must be the
// only thing that changes the master stream — and only by one draw.
TEST(SteppedSimTest, TransportOffIsPureLegacyPath) {
  sim::FullStackConfig config;
  config.num_tags = 2;
  config.rounds = 3;
  Rng a(17);
  const sim::FullStackStats legacy = sim::RunFullStackCampaign(config, a);
  EXPECT_EQ(legacy.transport_offered, 0u);
  EXPECT_EQ(legacy.transport_delivered, 0u);
  EXPECT_EQ(legacy.transport_retransmissions, 0u);
  EXPECT_EQ(legacy.transport_ext_rejected, 0u);
}
