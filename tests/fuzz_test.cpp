// Fuzz-style robustness tests: random garbage into every parser and
// receiver in the system. Nothing may crash, hang, or fabricate valid
// frames out of noise at meaningful rates.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/tag_frame.h"
#include "health/wire.h"
#include "impair/impair.h"
#include "impair/rogue.h"
#include "mac/plm.h"
#include "mac/tag_mac.h"
#include "phy80211/receiver.h"
#include "phy80211b/frame11b.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"
#include "runtime/checkpoint.h"
#include "sim/link.h"
#include "sim/multitag.h"
#include "sim/soak.h"
#include "sim/sweep.h"
#include "transport/ack.h"
#include "transport/arq.h"

namespace freerider {
namespace {

IqBuffer RandomIq(Rng& rng, std::size_t n, double scale = 1.0) {
  IqBuffer out(n);
  for (auto& x : out) x = rng.NextComplexGaussian() * scale;
  return out;
}

TEST(Fuzz, WifiReceiverOnNoiseBuffers) {
  Rng rng(2);
  int detections = 0;
  for (int i = 0; i < 10; ++i) {
    const IqBuffer noise = RandomIq(rng, 2000 + rng.NextBelow(4000));
    detections += phy80211::ReceiveFrame(noise).fcs_ok;
  }
  EXPECT_EQ(detections, 0);
}

TEST(Fuzz, ZigbeeReceiverOnNoiseBuffers) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const IqBuffer noise = RandomIq(rng, 2000 + rng.NextBelow(3000));
    EXPECT_FALSE(phy802154::ReceiveFrame(noise).fcs_ok);
  }
}

TEST(Fuzz, BleReceiverOnNoiseBuffers) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const IqBuffer noise = RandomIq(rng, 1500 + rng.NextBelow(2000));
    EXPECT_FALSE(phyble::ReceiveFrame(noise).crc_ok);
  }
}

TEST(Fuzz, Dsss11bReceiverOnNoiseBuffers) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const IqBuffer noise = RandomIq(rng, 3000 + rng.NextBelow(3000));
    EXPECT_FALSE(phy80211b::ReceiveFrame(noise).fcs_ok);
  }
}

TEST(Fuzz, TagFrameScannerOnRandomBits) {
  Rng rng(6);
  std::size_t crc_valid = 0;
  std::size_t frames = 0;
  for (int i = 0; i < 200; ++i) {
    const BitVector junk = RandomBits(rng, 2000);
    for (const auto& f : core::ExtractTagFrames(junk)) {
      ++frames;
      crc_valid += f.crc_ok;
    }
  }
  // Preamble false matches happen (16-bit pattern in 400k bits), but a
  // 16-bit CRC passes by luck only ~1/65536 of the time.
  EXPECT_LT(crc_valid, 3u);
  (void)frames;
}

TEST(Fuzz, PlmReceiverOnRandomBits) {
  Rng rng(7);
  mac::PlmMessageReceiver receiver(16);
  int messages = 0;
  for (int i = 0; i < 100000; ++i) {
    if (receiver.PushBit(rng.NextBit()).has_value()) ++messages;
  }
  // 8-bit preamble in random bits: matches are expected (~1/256), the
  // receiver just hands the payload up — the announcement parser and
  // round sequence filtering reject garbage upstream.
  EXPECT_GT(messages, 0);
}

TEST(Fuzz, TagControllerOnRandomPulses) {
  Rng rng(8);
  mac::TagController controller(1);
  for (int i = 0; i < 20000; ++i) {
    controller.OnPulse({0.0, rng.NextDouble() * 3e-3});
    controller.OnSlotBoundary();
  }
  // Must end in a sane state whatever arrived.
  SUCCEED();
}

// Draw a random point in the impairment-config space: random subset of
// fault classes enabled, parameters spanning benign to absurd.
impair::ImpairmentConfig RandomImpairments(Rng& rng) {
  impair::ImpairmentConfig config;
  config.cfo.enabled = rng.NextBit();
  config.cfo.cfo_hz = (rng.NextDouble() - 0.5) * 100e3;
  config.cfo.cfo_sigma_hz = rng.NextDouble() * 10e3;
  config.cfo.tag_clock_ppm = (rng.NextDouble() - 0.5) * 60000.0;
  config.cfo.tag_clock_ppm_sigma = rng.NextDouble() * 5000.0;
  config.cfo.start_slip_sigma_samples = rng.NextDouble() * 200.0;
  config.interferer.enabled = rng.NextBit();
  config.interferer.burst_probability = rng.NextDouble();
  config.interferer.burst_power_dbm = -100.0 + rng.NextDouble() * 60.0;
  config.interferer.min_fraction = rng.NextDouble() * 0.5;
  config.interferer.max_fraction =
      config.interferer.min_fraction + rng.NextDouble() * 0.5;
  config.dropout.enabled = rng.NextBit();
  config.dropout.dropout_probability = rng.NextDouble();
  config.dropout.min_keep_fraction = rng.NextDouble() * 0.5;
  config.dropout.max_keep_fraction =
      config.dropout.min_keep_fraction + rng.NextDouble() * 0.5;
  config.envelope.enabled = rng.NextBit();
  config.envelope.miss_probability = rng.NextDouble();
  config.envelope.spurious_probability = rng.NextDouble();
  config.envelope.extra_jitter_s = rng.NextDouble() * 100e-6;
  return config;
}

TEST(Fuzz, FaultInjectorOnRandomConfigs) {
  Rng rng(20);
  for (int i = 0; i < 200; ++i) {
    impair::FaultInjector injector(RandomImpairments(rng), rng.NextU64());
    IqBuffer wave = RandomIq(rng, 200 + rng.NextBelow(800), 1e-4);
    for (int f = 0; f < 20; ++f) {
      const impair::FrameFaults faults = injector.DrawFrame();
      EXPECT_TRUE(std::isfinite(faults.cfo_hz));
      EXPECT_TRUE(std::isfinite(faults.tag_clock_ppm));
      EXPECT_GE(faults.keep_fraction, 0.0);
      EXPECT_LE(faults.keep_fraction, 1.0);
      injector.ApplyDropout(wave, faults);
      wave = injector.ApplyCfo(std::move(wave), faults.cfo_hz,
                               20e6);
      injector.ApplyInterferer(wave, faults);
      for (const Cplx& x : wave) {
        ASSERT_TRUE(std::isfinite(x.real()) && std::isfinite(x.imag()));
      }
    }
    std::vector<tag::MeasuredPulse> pulses;
    for (int p = 0; p < 30; ++p) {
      pulses.push_back({rng.NextDouble(), rng.NextDouble() * 2e-3});
    }
    for (const auto& m : injector.ImpairPulses(std::move(pulses))) {
      EXPECT_TRUE(std::isfinite(m.start_s));
      EXPECT_TRUE(std::isfinite(m.duration_s));
    }
  }
}

TEST(Fuzz, LinkSimulatorOnRandomImpairments) {
  Rng rng(21);
  for (int i = 0; i < 6; ++i) {
    sim::LinkConfig config;
    config.radio = core::RadioType::kWifi;
    config.deployment = channel::LosDeployment();
    config.tag_to_rx_m = 1.0 + rng.NextDouble() * 10.0;
    config.num_packets = 2;
    config.profile = sim::DefaultProfile(config.radio);
    config.profile.excitation_payload_bytes = 120;
    config.impairments = RandomImpairments(rng);
    Rng sim_rng(rng.NextU64());
    const sim::LinkStats stats = sim::SimulateTagLink(config, sim_rng);
    EXPECT_TRUE(std::isfinite(stats.packet_reception_rate));
    EXPECT_TRUE(std::isfinite(stats.tag_ber));
    EXPECT_TRUE(std::isfinite(stats.tag_throughput_bps));
    EXPECT_GE(stats.packet_reception_rate, 0.0);
    EXPECT_LE(stats.packet_reception_rate, 1.0);
    EXPECT_GE(stats.tag_ber, 0.0);
    EXPECT_LE(stats.tag_ber, 1.0);
  }
}

TEST(Fuzz, FullStackOnRandomImpairments) {
  Rng rng(22);
  for (int i = 0; i < 3; ++i) {
    sim::FullStackConfig config;
    config.num_tags = 1 + rng.NextBelow(3);
    config.rounds = 2;
    config.excitation_payload_bytes = 120;
    config.impairments = RandomImpairments(rng);
    Rng sim_rng(rng.NextU64());
    const sim::FullStackStats stats =
        sim::RunFullStackCampaign(config, sim_rng);
    EXPECT_EQ(stats.rounds, 2u);
    EXPECT_TRUE(std::isfinite(stats.goodput_bps));
    EXPECT_TRUE(std::isfinite(stats.airtime_s));
    EXPECT_TRUE(std::isfinite(stats.jain_fairness));
    EXPECT_GE(stats.goodput_bps, 0.0);
  }
}

TEST(Fuzz, CsvEscapesQuotesAndCommas) {
  sim::TablePrinter table({"a,b", "c\"d"});
  table.AddRow({"1,2", "say \"hi\""});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"c\"\"d\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Fuzz, CsvPlainCellsUnquoted) {
  sim::TablePrinter table({"x", "y"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "x,y\n1,2\n");
}

TEST(Fuzz, ExtendedAnnouncementParserOnRandomBits) {
  // Arbitrary bit soup: the parser must never crash, and must never
  // report a valid extension whose blocks it did not CRC-verify.
  Rng rng(777);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = rng.NextBelow(360);
    const BitVector bits = RandomBits(rng, n);
    const auto parsed = transport::ParseAnnouncementExtended(bits);
    if (parsed.has_value() && parsed->ext.has_value()) {
      EXPECT_LE(parsed->ext->acks.size(), transport::kMaxAckBlocks);
    }
  }
}

TEST(Fuzz, ExtendedAnnouncementParserOnMutatedValidPayloads) {
  // Start from a valid extended announcement and flip random bits:
  // either the extension still decodes to exactly what was sent, or it
  // is rejected — corrupt downlinks must never fabricate ACK state.
  Rng rng(778);
  transport::AckExtension ext;
  ext.acks.push_back({1, 17, 0x0404});
  ext.acks.push_back({2, 200, 0x8001});
  mac::RoundAnnouncement round;
  round.slots = 10;
  round.sequence = 5;
  const BitVector clean = transport::BuildAnnouncementExtended(round, ext);
  for (int iter = 0; iter < 500; ++iter) {
    BitVector mutated = clean;
    const std::size_t flips = 1 + rng.NextBelow(6);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= 1;
    }
    const auto parsed = transport::ParseAnnouncementExtended(mutated);
    if (parsed.has_value() && parsed->ext.has_value()) {
      EXPECT_EQ(parsed->ext->acks, ext.acks);
    }
  }
}

namespace {

/// A loaded, valid version-2 (health) announcement for mutation fuzz.
BitVector ValidHealthAnnouncement() {
  mac::RoundAnnouncement round;
  round.slots = 12;
  round.sequence = 201;
  transport::AckExtension acks;
  acks.acks.push_back({1, 9, 0x0021});
  acks.acks.push_back({4, 250, 0x8000});
  health::HealthExtension cmds;
  health::TagCommand cmd;
  cmd.tag_id = 3;
  cmd.admit = true;
  cmd.probe = true;
  cmd.boost_steps = 2;
  cmds.commands.push_back(cmd);
  cmd.tag_id = 5;
  cmd.admit = false;
  cmd.probe = false;
  cmd.boost_steps = 0;
  cmds.commands.push_back(cmd);
  return health::BuildAnnouncementHealth(round, acks, cmds);
}

/// Bounds every accepted parse must respect regardless of input.
void ExpectHealthParseBounded(const health::HealthParseResult& parsed) {
  if (parsed.acks.has_value()) {
    EXPECT_LE(parsed.acks->acks.size(), health::kMaxAckBlocksV2);
  }
  if (parsed.health.has_value()) {
    EXPECT_LE(parsed.health->commands.size(), health::kMaxHealthBlocks);
    for (const health::TagCommand& cmd : parsed.health->commands) {
      EXPECT_LE(cmd.boost_steps, health::kMaxBoostSteps);
    }
  }
}

}  // namespace

TEST(Fuzz, HealthAnnouncementParserOnRandomBits) {
  // Arbitrary bit soup into the version-2 parser: never crash, and any
  // extension it does accept obeys every structural bound.
  Rng rng(881);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = rng.NextBelow(400);
    const auto parsed = health::ParseAnnouncementHealth(RandomBits(rng, n));
    if (parsed.has_value()) ExpectHealthParseBounded(*parsed);
  }
}

TEST(Fuzz, HealthAnnouncementTruncatedAtEveryPosition) {
  // A hostile or collision-cut downlink can end mid-extension at any
  // bit. Every prefix must parse without crashing, and no truncation
  // may yield a *different* accepted extension: either the cut lands
  // before the extension starts (bare announcement, nothing parsed) or
  // the length equation / CRC rejects it.
  const BitVector clean = ValidHealthAnnouncement();
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const BitVector cut(clean.begin(), clean.begin() + len);
    const auto parsed = health::ParseAnnouncementHealth(cut);
    if (len < 16) {
      EXPECT_FALSE(parsed.has_value()) << "len " << len;
      continue;
    }
    ASSERT_TRUE(parsed.has_value()) << "len " << len;
    EXPECT_FALSE(parsed->acks.has_value()) << "len " << len;
    EXPECT_FALSE(parsed->health.has_value()) << "len " << len;
  }
  // The untruncated payload still parses whole (the loop above really
  // was cutting a valid message).
  const auto whole = health::ParseAnnouncementHealth(clean);
  ASSERT_TRUE(whole.has_value());
  EXPECT_TRUE(whole->acks.has_value());
  EXPECT_TRUE(whole->health.has_value());
}

TEST(Fuzz, HealthAnnouncementOnRandomDoubleBitFlips) {
  // CRC-8 catches every single-bit error (health_test proves that
  // exhaustively); multi-bit patterns are where a weak checksum would
  // leak forged commands through. 2000 random double flips: anything
  // accepted must decode to exactly what was sent.
  Rng rng(882);
  const BitVector clean = ValidHealthAnnouncement();
  const auto reference = health::ParseAnnouncementHealth(clean);
  ASSERT_TRUE(reference.has_value());
  std::size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    BitVector mutated = clean;
    const std::size_t a = 16 + rng.NextBelow(mutated.size() - 16);
    std::size_t b = 16 + rng.NextBelow(mutated.size() - 16);
    while (b == a) b = 16 + rng.NextBelow(mutated.size() - 16);
    mutated[a] ^= 1;
    mutated[b] ^= 1;
    const auto parsed = health::ParseAnnouncementHealth(mutated);
    ASSERT_TRUE(parsed.has_value());
    ExpectHealthParseBounded(*parsed);
    if (parsed->ext_rejected) {
      ++rejected;
    } else if (parsed->acks.has_value() || parsed->health.has_value()) {
      // An undetected double flip must at least not alter the content
      // the coordinator acts on.
      ASSERT_TRUE(parsed->acks.has_value());
      ASSERT_TRUE(parsed->health.has_value());
      EXPECT_EQ(parsed->acks->acks, reference->acks->acks);
      EXPECT_EQ(parsed->health->commands, reference->health->commands);
    }
  }
  // The codec must be doing real work, not waving everything through.
  EXPECT_GT(rejected, 1900u);
}

TEST(Fuzz, HealthAnnouncementOnForgedCrcCorpus) {
  // The forger rogue's corpus: random bodies under *correct* CRC-8s,
  // plus corrupted and intact well-formed extensions. The checksum is
  // no authenticator, so structural validation carries the load — no
  // crash, and every acceptance stays inside the caps.
  impair::RogueConfig config;
  config.seed = 0xF0F0;
  config.tags.resize(2);
  config.tags[1].model = impair::RogueModel::kForger;
  config.tags[1].forge_probability = 1.0;
  impair::RogueEngine engine(config, 2);
  std::size_t parsed_total = 0;
  for (std::size_t round = 0; round < 600; ++round) {
    engine.BeginRound(round);
    ASSERT_TRUE(engine.ForgesThisRound(1));
    const auto parsed =
        health::ParseAnnouncementHealth(engine.ForgedExtension(1));
    ASSERT_TRUE(parsed.has_value()) << "round " << round;
    ExpectHealthParseBounded(*parsed);
    ++parsed_total;
  }
  EXPECT_EQ(parsed_total, 600u);
}

TEST(Fuzz, ExtendedPlmReceiverOnRandomBits) {
  // The variable-length receiver reads a length field from the air; a
  // hostile header must neither crash it nor park it past the bounded
  // maximum payload.
  Rng rng(779);
  mac::PlmMessageReceiver receiver = mac::PlmMessageReceiver::ExtendedReceiver();
  for (int i = 0; i < 20000; ++i) {
    if (const auto message = receiver.PushBit(rng.NextBit())) {
      EXPECT_GE(message->size(), 16u);
      EXPECT_LE(message->size(), mac::kMaxExtendedPayloadBits);
    }
  }
}

TEST(Fuzz, SoakReplayParserOnGarbage) {
  Rng rng(780);
  const char alphabet[] = "{}[]\",:0123456789.eE+-truefalsnl \n\t";
  for (int iter = 0; iter < 300; ++iter) {
    std::string text;
    const std::size_t n = rng.NextBelow(200);
    for (std::size_t i = 0; i < n; ++i) {
      text += alphabet[rng.NextBelow(sizeof alphabet - 1)];
    }
    // Must not crash; acceptance is fine only if it really parsed.
    (void)sim::ParseSoakReplay(text);
  }
}

TEST(Fuzz, CheckpointDecoderOnGarbage) {
  // Raw noise, including strings that begin with plausible length
  // fields, must never crash the frame decoder or make it allocate
  // from an untrusted length.
  Rng rng(790);
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes;
    const std::size_t n = rng.NextBelow(512);
    for (std::size_t i = 0; i < n; ++i) {
      bytes += static_cast<char>(rng.NextBelow(256));
    }
    const auto decoded = runtime::DecodeCheckpoint(bytes);
    if (decoded.ok) {
      // Random noise should essentially never fake a CRC-framed
      // header; if it does, the grid must still be within bounds.
      EXPECT_LE(decoded.header.points, 1u << 24);
      EXPECT_LE(decoded.header.trials, 1u << 24);
    }
    // Determinism: decoding the same bytes twice gives the same story.
    const auto again = runtime::DecodeCheckpoint(bytes);
    EXPECT_EQ(again.ok, decoded.ok);
    EXPECT_EQ(again.frames_kept, decoded.frames_kept);
    EXPECT_EQ(again.dropped_bytes, decoded.dropped_bytes);
  }
}

TEST(Fuzz, CheckpointDecoderOnMutatedValidImages) {
  // Start from a real checkpoint and apply the failure modes a torn
  // write or disk rot produces: truncation, single bit flips, and
  // duplicated frames. Decode must never crash, never keep an invalid
  // frame, and stay deterministic.
  Rng rng(791);
  runtime::CheckpointHeader header;
  header.campaign = runtime::CampaignId("fuzz_ckpt", 7);
  header.points = 6;
  header.trials = 2;
  std::vector<runtime::TaskRecord> records;
  for (std::uint64_t i = 0; i < 12; ++i) {
    runtime::TaskRecord r;
    r.index = i;
    r.state = (i == 5) ? runtime::TaskState::kQuarantined
                       : runtime::TaskState::kDone;
    runtime::PayloadWriter w;
    w.U64(i * 17);
    w.F64(1.0 / (1.0 + static_cast<double>(i)));
    r.payload = w.Take();
    records.push_back(r);
  }
  const std::string image = runtime::EncodeCheckpoint(header, records);
  ASSERT_TRUE(runtime::DecodeCheckpoint(image).ok);
  ASSERT_EQ(runtime::DecodeCheckpoint(image).frames_kept, records.size());

  // Truncation at every byte keeps a valid prefix, never more records
  // than the intact image, and reports the dropped tail.
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const auto decoded =
        runtime::DecodeCheckpoint(std::string_view(image).substr(0, cut));
    EXPECT_LE(decoded.frames_kept, records.size());
    if (decoded.ok && cut < image.size()) {
      for (const auto& rec : decoded.records) {
        EXPECT_LT(rec.index, header.points * header.trials);
      }
    }
  }

  // Random single bit flips: decode both never crashes and is
  // deterministic; a flip in frame k's span loses frames >= k only.
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = image;
    const std::size_t at = rng.NextBelow(mutated.size());
    mutated[at] = static_cast<char>(
        static_cast<unsigned char>(mutated[at]) ^ (1u << rng.NextBelow(8)));
    const auto a = runtime::DecodeCheckpoint(mutated);
    const auto b = runtime::DecodeCheckpoint(mutated);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.frames_kept, b.frames_kept);
    EXPECT_EQ(a.duplicates, b.duplicates);
    EXPECT_EQ(a.dropped_bytes, b.dropped_bytes);
    for (std::size_t i = 0; i < a.frames_kept; ++i) {
      // Kept records are bit-identical to the originals they claim to
      // be (CRC caught everything else).
      EXPECT_EQ(a.records[i].payload, records[a.records[i].index].payload);
    }
  }

  // Duplicated frames: re-append a random slice of record frames; the
  // decoder keeps first occurrences and counts the rest.
  {
    std::string doubled = image + image;
    // Appending a second full image re-presents the header frame as a
    // record frame; that is malformed, so everything after the first
    // image is salvage-dropped — still no crash, still deterministic.
    const auto decoded = runtime::DecodeCheckpoint(doubled);
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.frames_kept, records.size());

    // Proper duplicate records (encoded once, records repeated twice)
    // are first-wins deduped and counted.
    std::vector<runtime::TaskRecord> twice = records;
    twice.insert(twice.end(), records.begin(), records.end());
    const auto deduped =
        runtime::DecodeCheckpoint(runtime::EncodeCheckpoint(header, twice));
    EXPECT_TRUE(deduped.ok);
    EXPECT_EQ(deduped.frames_kept, records.size());
    EXPECT_EQ(deduped.duplicates, records.size());
  }
}

TEST(Fuzz, TransportQueuesOnAdversarialAckStream) {
  // Random ACK blocks, including nonsense cumulative points and NACK
  // bitmaps for frames never sent: the queue must stay bounded and
  // never double-acknowledge.
  Rng rng(781);
  for (int trial = 0; trial < 20; ++trial) {
    transport::TransportConfig config;
    config.enabled = true;
    config.queue_capacity = 16;
    transport::TagTransport tx(config);
    std::size_t accepted = 0;
    for (std::size_t round = 0; round < 300; ++round) {
      tx.OnRoundStart(round);
      if (tx.Enqueue(round)) ++accepted;
      (void)tx.NextFrame(round);
      transport::TagAck ack;
      ack.tag_id = 1;
      ack.cumulative = static_cast<std::uint8_t>(rng.NextBelow(256));
      ack.nack_bitmap = static_cast<std::uint16_t>(rng.NextBelow(65536));
      tx.OnAck(ack, round);
      ASSERT_LE(tx.pending(), config.queue_capacity);
    }
    EXPECT_LE(tx.stats().acked + tx.stats().expired + tx.pending(), accepted);
  }
}

}  // namespace
}  // namespace freerider
