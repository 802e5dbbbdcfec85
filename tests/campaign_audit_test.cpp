// The shared campaign audit (sim/campaign_audit): SeqAudit and
// ViolationLog on synthetic round reports, then golden digests of small
// stress, adversarial and soak campaigns.
//
// Each case pins a 64-bit FNV-1a hash of the campaign's result digest
// and of its checkpoint payload. The digest carries every violation
// line the sequence audit emits plus the counters; the payload is the
// checkpoint currency a resumed campaign reloads. A change to the audit
// rule, the digest text or the payload codec therefore fails here by
// campaign name, and an unchanged hash is the proof that a refactor of
// the audit kept the bytes identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/adversarial.h"
#include "sim/campaign_audit.h"
#include "sim/soak.h"
#include "sim/stress.h"

using namespace freerider;

namespace {

using sim::RoundReport;
using sim::SeqAudit;
using sim::ViolationLog;

RoundReport Report(std::vector<RoundReport::Delivery> delivered,
                   std::vector<RoundReport::Delivery> skipped = {}) {
  RoundReport report;
  report.delivered = std::move(delivered);
  report.skipped = std::move(skipped);
  return report;
}

std::vector<std::string> Kinds(const ViolationLog& log) {
  std::vector<std::string> kinds;
  for (const sim::CampaignViolation& v : log.records()) kinds.push_back(v.kind);
  return kinds;
}

const std::vector<std::size_t> kNoResyncs(2, 0);

// ----------------------------------------------------------- SeqAudit

TEST(SeqAuditTest, InOrderDeliveryIsClean) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  for (std::uint8_t r = 0; r < 5; ++r) {
    const std::uint8_t seq = static_cast<std::uint8_t>(2 * r);
    audit.Observe(r, Report({{1, seq}, {2, r}, {1, std::uint8_t(seq + 1)}}),
                  kNoResyncs, log);
  }
  EXPECT_TRUE(log.empty()) << log.Digest();
  EXPECT_EQ(audit.stream(0).position, 10u);
  EXPECT_EQ(audit.stream(0).delivered, 10u);
  EXPECT_EQ(audit.stream(1).position, 5u);
  EXPECT_EQ(audit.stream(1).skipped, 0u);
}

TEST(SeqAuditTest, ClassifiesDuplicateBehindAndReorderAhead) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  audit.Observe(0, Report({{1, 0}, {1, 1}, {1, 2}}), kNoResyncs, log);
  audit.Observe(1, Report({{1, 1}, {1, 5}}), kNoResyncs, log);
  EXPECT_EQ(log.Digest(),
            "violation round=1 kind=duplicate tag=1 seq=1 expected=3\n"
            "violation round=1 kind=reorder tag=1 seq=5 expected=3\n");
  // Neither event moved the stream.
  EXPECT_EQ(audit.stream(0).position, 3u);
}

TEST(SeqAuditTest, SkipAndItsSameRoundFlushAreInOrder) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  audit.Observe(0, Report({{1, 0}, {1, 1}}), kNoResyncs, log);
  // Hole at 2: the receiver skips it at round end and releases 3..4.
  audit.Observe(1, Report({{1, 3}, {1, 4}}, {{1, 2}}), kNoResyncs, log);
  // A skip with nothing behind it.
  audit.Observe(2, Report({}, {{1, 5}}), kNoResyncs, log);
  EXPECT_TRUE(log.empty()) << log.Digest();
  EXPECT_EQ(audit.stream(0).position, 6u);
  EXPECT_EQ(audit.stream(0).delivered, 4u);
  EXPECT_EQ(audit.stream(0).skipped, 2u);

  // A skip that is not the stream's next sequence is out of order.
  audit.Observe(3, Report({}, {{1, 9}}), kNoResyncs, log);
  EXPECT_EQ(log.Digest(),
            "violation round=3 kind=skip-out-of-order tag=1 seq=9 "
            "expected=6\n");
}

TEST(SeqAuditTest, UnanchoredStreamAnchorsAtItsFirstSkip) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  // Tag 1's first event is a skip plus its flush; tag 2's a lone skip.
  audit.Observe(0, Report({{1, 8}, {1, 9}}, {{1, 7}, {2, 40}}), kNoResyncs,
                log);
  audit.Observe(1, Report({{2, 41}}), kNoResyncs, log);
  EXPECT_TRUE(log.empty()) << log.Digest();
  EXPECT_EQ(audit.stream(0).position, 10u);
  EXPECT_EQ(audit.stream(0).skipped, 1u);
  EXPECT_EQ(audit.stream(0).delivered, 2u);
  EXPECT_EQ(audit.stream(1).position, 42u);
  EXPECT_EQ(audit.stream(1).skipped, 1u);
}

TEST(SeqAuditTest, ResyncReAnchorsTheStream) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  audit.Observe(0, Report({{1, 0}, {1, 1}}), kNoResyncs, log);
  // Without a resync, a jump to 100 is a reorder...
  ViolationLog unsanctioned;
  SeqAudit copy = audit;
  copy.Observe(1, Report({{1, 100}}), kNoResyncs, unsanctioned);
  EXPECT_EQ(Kinds(unsanctioned), std::vector<std::string>{"reorder"});
  // ...but after one the transport has forgotten its delivery point and
  // the next frame heard starts the stream again.
  audit.Observe(1, Report({{1, 100}, {1, 101}}), {1, 0}, log);
  EXPECT_TRUE(log.empty()) << log.Digest();
  EXPECT_EQ(audit.stream(0).position, 102u);
  EXPECT_EQ(audit.stream(0).resyncs_seen, 1u);
  // A second resync whose first event is a skip and its flush.
  audit.Observe(2, Report({{1, 31}}, {{1, 30}}), {2, 0}, log);
  EXPECT_TRUE(log.empty()) << log.Digest();
  EXPECT_EQ(audit.stream(0).position, 32u);
}

TEST(SeqAuditTest, PositionsSurviveTheEightBitWrap) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  std::uint64_t next = 0;
  std::size_t round = 0;
  // 600 sequences, every 40th skipped with the next one flushed behind
  // it, so the space wraps twice and skips straddle the wraps.
  while (next < 600) {
    const std::uint8_t seq = static_cast<std::uint8_t>(next);
    if (next % 40 == 39) {
      audit.Observe(round++, Report({{1, std::uint8_t(seq + 1)}}, {{1, seq}}),
                    kNoResyncs, log);
      next += 2;
    } else {
      audit.Observe(round++, Report({{1, seq}}), kNoResyncs, log);
      next += 1;
    }
  }
  EXPECT_TRUE(log.empty()) << log.Digest();
  EXPECT_EQ(audit.stream(0).position, next);
  EXPECT_EQ(audit.stream(0).skipped, 15u);
  EXPECT_EQ(audit.stream(0).delivered + audit.stream(0).skipped, next);
  // Position 600 expects on-air 88; a late 87 is behind, not ahead.
  audit.Observe(round, Report({{1, 87}}), kNoResyncs, log);
  EXPECT_EQ(Kinds(log), std::vector<std::string>{"duplicate"});
}

TEST(SeqAuditTest, StrictModeLogsEveryConsumedSkip) {
  SeqAudit audit(2, /*skips_violate=*/true);
  ViolationLog log;
  audit.Observe(0, Report({{1, 1}, {1, 2}}, {{1, 0}}), kNoResyncs, log);
  audit.Observe(1, Report({}, {{1, 3}, {2, 0}}), kNoResyncs, log);
  EXPECT_EQ(log.Digest(),
            "violation round=0 kind=skip tag=1 seq=0\n"
            "violation round=1 kind=skip tag=1 seq=3\n"
            "violation round=1 kind=skip tag=2 seq=0\n");
}

TEST(SeqAuditTest, DeliveryHookRunsBeforeTheAudit) {
  SeqAudit audit(2, /*skips_violate=*/false);
  ViolationLog log;
  std::size_t calls = 0;
  auto hook = [&](const RoundReport::Delivery& d) {
    ++calls;
    if (d.tag_id == 2) log.Add(0, "hooked", "");
  };
  audit.Observe(0, Report({{2, 0}}), kNoResyncs, log);
  audit.Observe(1, Report({{1, 0}, {2, 5}, {1, 1}}), kNoResyncs, log, hook);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(Kinds(log), (std::vector<std::string>{"hooked", "reorder"}));
}

// ------------------------------------------------------- ViolationLog

TEST(ViolationLogTest, CapKeepsTheFirstRecordsAndCountsThemAll) {
  ViolationLog log(3);
  for (std::size_t i = 0; i < 5; ++i) log.Add(i, "duplicate", "tag=1");
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.total(), 5u);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.records().back().round, 2u);

  runtime::PayloadWriter w;
  log.Write(w);
  const std::string payload = w.Take();
  ViolationLog restored(3);
  runtime::PayloadReader r(payload);
  ASSERT_TRUE(restored.Read(r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.total(), 5u);
  EXPECT_EQ(restored.Digest(), log.Digest());

  // More records than the cap never load.
  ViolationLog tight(2);
  runtime::PayloadReader again(payload);
  EXPECT_FALSE(tight.Read(again));
}

// A capped log's total counts its records too, so a payload whose total
// is below its record count is corrupt: loading it would leave a log
// that holds violations yet reports empty().
TEST(ViolationLogTest, CappedTotalBelowRecordCountNeverLoads) {
  // Two records, then the capped log's total.
  const auto payload = [](std::uint64_t total) {
    runtime::PayloadWriter w;
    w.U64(2);
    for (const std::uint64_t round : {4u, 9u}) {
      w.U64(round);
      w.Str("duplicate");
      w.Str("tag=1");
    }
    w.U64(total);
    return w.Take();
  };
  ViolationLog log(3);
  for (const std::uint64_t total : {0u, 1u}) {
    const std::string bytes = payload(total);
    runtime::PayloadReader r(bytes);
    EXPECT_FALSE(log.Read(r)) << "total " << total;
    EXPECT_TRUE(log.records().empty());
  }
  // The record count itself is the smallest total that loads.
  const std::string bytes = payload(2);
  runtime::PayloadReader exact(bytes);
  ASSERT_TRUE(log.Read(exact));
  EXPECT_EQ(log.total(), 2u);
  EXPECT_FALSE(log.empty());
}

TEST(ViolationLogTest, UncappedLogWritesNoSeparateTotal) {
  ViolationLog log;
  log.Add(7, "lost", "tag=2");
  runtime::PayloadWriter w;
  log.Write(w);
  runtime::PayloadWriter expected;
  expected.U64(1);
  expected.U64(7);
  expected.Str("lost");
  expected.Str("tag=2");
  EXPECT_EQ(w.Take(), expected.Take());
}

// ----------------------------------------------------- golden digests

std::string Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char out[19];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

void ExpectPinned(const std::string& digest, const std::string& payload,
                  const char* digest_hash, const char* payload_hash) {
  EXPECT_EQ(Fnv1a(digest), digest_hash) << digest;
  EXPECT_EQ(Fnv1a(payload), payload_hash);
}

// ------------------------------------------------------------- stress

/// Fades, a transient blackout and a dead tag, with a short hole-skip
/// horizon and a small retry budget so the skip path runs too. The tag
/// dies too late to be quarantined before the campaign ends, so the
/// supervisor-on run logs a violation.
sim::StressConfig GoldenStress(bool supervisor_on) {
  sim::StressConfig config;
  config.seed = 97;
  config.num_tags = 3;
  config.rounds = 120;
  config.drain_rounds = 60;
  config.offer_every = 3;
  config.supervisor_on = supervisor_on;
  config.transport.max_transmissions = 3;
  config.transport.rto_rounds = 2;
  config.transport.expiry_rounds = 1000000;
  config.transport.queue_capacity = 24;
  config.transport.hole_skip_rounds = 24;
  config.dynamics.seed = 0xBADC0FFEEull;
  config.dynamics.gilbert.enabled = true;
  config.dynamics.gilbert.p_good_to_bad = 0.02;
  config.dynamics.gilbert.p_bad_to_good = 0.08;
  config.dynamics.gilbert.good_loss = 0.02;
  config.dynamics.gilbert.bad_loss = 0.9;
  impair::BlackoutWindow w;
  w.begin_round = 30;
  w.end_round = 50;
  w.tags = {1};
  config.dynamics.blackouts = {w};
  config.dead_tag = 2;
  config.dead_round = 175;
  return config;
}

void ExpectStress(bool supervisor_on, const char* digest_hash,
                  const char* payload_hash) {
  const sim::StressResult r = sim::RunStress(GoldenStress(supervisor_on));
  ExpectPinned(r.digest, sim::SerializeStressResult(r), digest_hash,
               payload_hash);
}

TEST(CampaignGoldenDigestTest, StressSupervisorOn) {
  ExpectStress(true, "a19cda4177d94d70", "36685eda7ed1b8ce");
}

TEST(CampaignGoldenDigestTest, StressSupervisorOff) {
  ExpectStress(false, "64089caaf7c49ac3", "5649a1547165540a");
}

// -------------------------------------------------------- adversarial

/// The rogue is the last tag: one honest victim beside it, or two for a
/// clone (which copies the second). The replayer's captured window
/// starts at sequence 0, so without the replay guard its frames are
/// delivered and logged as stale.
sim::AdversarialConfig GoldenAdversarial(impair::RogueModel model,
                                         bool defenses_on) {
  const bool clone = model == impair::RogueModel::kClone;
  sim::AdversarialConfig config;
  config.seed = 99;
  config.num_tags = clone ? 3 : 2;
  config.rounds = 20;
  config.drain_rounds = 8;
  config.offer_every = 2;
  config.defenses_on = defenses_on;
  config.transport.max_transmissions = 16;
  config.transport.expiry_rounds = 1000000;
  config.transport.queue_capacity = 24;
  config.transport.rto_rounds = 3;
  config.transport.max_escalation_steps = 1;
  config.transport.hole_skip_rounds = 96;
  config.rogue.seed = 0x5EED;
  config.rogue.tags.resize(config.num_tags);
  impair::RogueSpec& rogue = config.rogue.tags.back();
  rogue.model = model;
  rogue.clone_of = 1;
  rogue.replay_offset = 0;
  return config;
}

void ExpectAdversarial(impair::RogueModel model, bool defenses_on,
                       const char* digest_hash, const char* payload_hash) {
  const sim::AdversarialResult r =
      sim::RunAdversarial(GoldenAdversarial(model, defenses_on));
  ExpectPinned(r.digest, sim::SerializeAdversarialResult(r), digest_hash,
               payload_hash);
}

TEST(CampaignGoldenDigestTest, AdversarialBabblerDefended) {
  ExpectAdversarial(impair::RogueModel::kBabbler, true,
                    "0052691eaf77ef4a", "04275640a39d9577");
}

TEST(CampaignGoldenDigestTest, AdversarialBabblerUndefended) {
  ExpectAdversarial(impair::RogueModel::kBabbler, false,
                    "ab1e0c3615d49c87", "8de0544260c8429b");
}

TEST(CampaignGoldenDigestTest, AdversarialReplayerDefended) {
  ExpectAdversarial(impair::RogueModel::kReplayer, true,
                    "85edb484e68be90a", "4578c781623c16cb");
}

TEST(CampaignGoldenDigestTest, AdversarialReplayerUndefended) {
  ExpectAdversarial(impair::RogueModel::kReplayer, false,
                    "58b07cb27b8ef149", "30f6895e96ec56de");
}

TEST(CampaignGoldenDigestTest, AdversarialSlotThiefDefended) {
  ExpectAdversarial(impair::RogueModel::kSlotThief, true,
                    "a1c8ccb0bff9dcbb", "f6fdf0c4844a7828");
}

TEST(CampaignGoldenDigestTest, AdversarialSlotThiefUndefended) {
  ExpectAdversarial(impair::RogueModel::kSlotThief, false,
                    "dd14a708933351b8", "ded4dc45422e754a");
}

TEST(CampaignGoldenDigestTest, AdversarialCloneDefended) {
  ExpectAdversarial(impair::RogueModel::kClone, true,
                    "66ad20ebe9d5f019", "c347d06db4a67da8");
}

TEST(CampaignGoldenDigestTest, AdversarialCloneUndefended) {
  ExpectAdversarial(impair::RogueModel::kClone, false,
                    "e7193f03c591f231", "9c88b2b2ec6aa225");
}

// --------------------------------------------------------------- soak

/// tests/soak_test.cpp's SurvivableConfig: two impairment regimes, loss
/// inside the transport's envelope.
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

/// tests/soak_test.cpp's BrokenConfig: one transmission under heavy
/// dropout, so frames expire and holes are skipped.
sim::SoakConfig BrokenConfig(bool strict) {
  sim::SoakConfig config;
  config.seed = 77;
  config.num_tags = 3;
  config.rounds = 40;
  config.drain_rounds = 30;
  config.offer_every = 2;
  config.strict = strict;
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

void ExpectSoak(const sim::SoakConfig& config, const char* digest_hash,
                const char* payload_hash) {
  const sim::SoakResult r = sim::RunSoak(config);
  ExpectPinned(r.digest, sim::SerializeSoakResult(r), digest_hash,
               payload_hash);
}

TEST(CampaignGoldenDigestTest, SoakSurvivable) {
  ExpectSoak(SurvivableConfig(11), "4791b518f3501b28", "0a61db3f4413892a");
}

TEST(CampaignGoldenDigestTest, SoakBrokenStrict) {
  ExpectSoak(BrokenConfig(true), "f9cd79f5cd2a4ec5", "57180bf00dba530f");
}

TEST(CampaignGoldenDigestTest, SoakBrokenNonStrict) {
  ExpectSoak(BrokenConfig(false), "2df18d3570e85934", "6e53bdee56e0455e");
}

}  // namespace
