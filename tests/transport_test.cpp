// Reliable tag-data transport: ACK extension codec, selective-repeat
// queues, and coordinator receive state (src/transport/).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "mac/plm.h"
#include "mac/tag_mac.h"
#include "transport/ack.h"
#include "transport/arq.h"

using namespace freerider;
using transport::CoordinatorTagRx;
using transport::RxError;
using transport::RxErrorName;
using transport::SeqDistance;
using transport::TagAck;
using transport::TagTransport;
using transport::TransportConfig;

namespace {

TransportConfig Enabled() {
  TransportConfig config;
  config.enabled = true;
  return config;
}

}  // namespace

// ------------------------------------------------------ sequence math

TEST(SeqDistanceTest, WrapsMod256) {
  EXPECT_EQ(SeqDistance(0, 0), 0);
  EXPECT_EQ(SeqDistance(0, 1), 1);
  EXPECT_EQ(SeqDistance(250, 4), 10);   // across the wrap
  EXPECT_EQ(SeqDistance(4, 250), 246);  // the long way round
  EXPECT_EQ(SeqDistance(255, 0), 1);
}

// -------------------------------------------------------- ACK codec

TEST(AckCodecTest, RoundTripsEveryBlockCount) {
  for (std::size_t blocks = 0; blocks <= transport::kMaxAckBlocks; ++blocks) {
    transport::AckExtension ext;
    for (std::size_t i = 0; i < blocks; ++i) {
      ext.acks.push_back({static_cast<std::uint8_t>(i + 1),
                          static_cast<std::uint8_t>(37 * i),
                          static_cast<std::uint16_t>(0xA5A5u >> i)});
    }
    mac::RoundAnnouncement round;
    round.slots = 12;
    round.sequence = 200;
    const BitVector payload = transport::BuildAnnouncementExtended(round, ext);
    const auto parsed = transport::ParseAnnouncementExtended(payload);
    ASSERT_TRUE(parsed.has_value()) << blocks << " blocks";
    EXPECT_FALSE(parsed->ext_rejected);
    EXPECT_EQ(parsed->round.slots, round.slots);
    EXPECT_EQ(parsed->round.sequence, round.sequence);
    ASSERT_TRUE(parsed->ext.has_value());
    EXPECT_EQ(parsed->ext->acks, ext.acks);
  }
}

TEST(AckCodecTest, ExactRandomRoundTrips) {
  Rng rng(404);
  for (int iter = 0; iter < 200; ++iter) {
    transport::AckExtension ext;
    const std::size_t blocks = rng.NextBelow(transport::kMaxAckBlocks + 1);
    for (std::size_t i = 0; i < blocks; ++i) {
      ext.acks.push_back(
          {static_cast<std::uint8_t>(rng.NextBelow(256)),
           static_cast<std::uint8_t>(rng.NextBelow(256)),
           static_cast<std::uint16_t>(rng.NextBelow(65536))});
    }
    mac::RoundAnnouncement round;
    round.slots = 1 + rng.NextBelow(255);
    round.sequence = static_cast<std::uint8_t>(rng.NextBelow(256));
    const BitVector payload = transport::BuildAnnouncementExtended(round, ext);
    const auto parsed = transport::ParseAnnouncementExtended(payload);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->ext.has_value());
    EXPECT_EQ(parsed->ext->acks, ext.acks);
    EXPECT_EQ(parsed->round.slots, round.slots);
  }
}

TEST(AckCodecTest, LegacyPayloadParsesWithoutExtension) {
  mac::RoundAnnouncement round;
  round.slots = 8;
  round.sequence = 3;
  const BitVector legacy = mac::BuildAnnouncement(round);
  const auto parsed = transport::ParseAnnouncementExtended(legacy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->round.slots, round.slots);
  EXPECT_FALSE(parsed->ext.has_value());
  EXPECT_FALSE(parsed->ext_rejected);
}

TEST(AckCodecTest, LegacyParserReadsThePrefixOfExtendedPayloads) {
  // A legacy 16-bit PLM receiver hears only the announcement prefix of
  // an extended message; the strict legacy parser must accept that
  // prefix and the prefix parser must accept the full payload.
  transport::AckExtension ext;
  ext.acks.push_back({1, 9, 0x0003});
  mac::RoundAnnouncement round;
  round.slots = 24;
  round.sequence = 77;
  const BitVector extended = transport::BuildAnnouncementExtended(round, ext);
  ASSERT_GT(extended.size(), 16u);

  const BitVector prefix(extended.begin(), extended.begin() + 16);
  const auto legacy = mac::ParseAnnouncement(prefix);
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->slots, round.slots);
  EXPECT_EQ(legacy->sequence, round.sequence);

  const auto from_prefix = mac::ParseAnnouncementPrefix(extended);
  ASSERT_TRUE(from_prefix.has_value());
  EXPECT_EQ(from_prefix->slots, round.slots);
}

TEST(AckCodecTest, TruncatedExtensionsRejectPrefixSurvives) {
  transport::AckExtension ext;
  ext.acks.push_back({1, 4, 0});
  ext.acks.push_back({2, 9, 1});
  mac::RoundAnnouncement round;
  round.slots = 6;
  round.sequence = 1;
  const BitVector full = transport::BuildAnnouncementExtended(round, ext);
  // Every strict truncation between the prefix and the full payload
  // must keep the round usable and never yield a phantom extension.
  for (std::size_t n = 16; n < full.size(); ++n) {
    const BitVector cut(full.begin(), full.begin() + n);
    const auto parsed = transport::ParseAnnouncementExtended(cut);
    ASSERT_TRUE(parsed.has_value()) << "length " << n;
    EXPECT_EQ(parsed->round.slots, round.slots) << "length " << n;
    if (n > 16) {
      EXPECT_FALSE(parsed->ext.has_value()) << "length " << n;
      EXPECT_TRUE(parsed->ext_rejected) << "length " << n;
    }
  }
}

TEST(AckCodecTest, OversizedAndPaddedPayloadsReject) {
  transport::AckExtension ext;
  ext.acks.push_back({1, 0, 0});
  mac::RoundAnnouncement round;
  round.slots = 4;
  BitVector padded = transport::BuildAnnouncementExtended(round, ext);
  padded.push_back(0);  // one trailing bit: length field no longer true
  const auto parsed = transport::ParseAnnouncementExtended(padded);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ext_rejected);

  BitVector oversized(mac::kMaxExtendedPayloadBits + 1, 1);
  // Give it a plausible prefix so only the size bound can reject it.
  const BitVector prefix = mac::BuildAnnouncement(round);
  std::copy(prefix.begin(), prefix.end(), oversized.begin());
  const auto huge = transport::ParseAnnouncementExtended(oversized);
  ASSERT_TRUE(huge.has_value());
  EXPECT_TRUE(huge->ext_rejected);
}

TEST(AckCodecTest, CorruptedBitsNeverFabricateAcks) {
  transport::AckExtension ext;
  ext.acks.push_back({3, 200, 0x00FF});
  mac::RoundAnnouncement round;
  round.slots = 16;
  round.sequence = 9;
  const BitVector clean = transport::BuildAnnouncementExtended(round, ext);
  // Single-bit flips anywhere past the prefix: the CRC (or a header
  // check) must reject the extension — it must never parse into a
  // *different* ACK set, which could acknowledge a lost frame.
  for (std::size_t i = 16; i < clean.size(); ++i) {
    BitVector flipped = clean;
    flipped[i] ^= 1;
    const auto parsed = transport::ParseAnnouncementExtended(flipped);
    if (!parsed.has_value() || !parsed->ext.has_value()) continue;
    EXPECT_EQ(parsed->ext->acks, ext.acks) << "bit " << i;
  }
}

TEST(AckCodecTest, UnknownVersionRejectsCleanly) {
  transport::AckExtension ext;
  ext.acks.push_back({1, 1, 1});
  mac::RoundAnnouncement round;
  round.slots = 4;
  BitVector payload = transport::BuildAnnouncementExtended(round, ext);
  // Version field: 4 bits, LSB-first, right after the 16-bit prefix.
  // Rewrite version 1 -> 2 and fix up the CRC so only the version is
  // "wrong": the parser must skip it without desyncing the prefix.
  payload[16] = 0;
  payload[17] = 1;
  const std::size_t body_start = 16;
  const std::size_t crc_start = payload.size() - 8;
  const std::uint8_t crc = Crc8(
      std::span<const Bit>(payload.data() + body_start,
                           crc_start - body_start));
  for (std::size_t i = 0; i < 8; ++i) {
    payload[crc_start + i] = (crc >> i) & 1;
  }
  const auto parsed = transport::ParseAnnouncementExtended(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->round.slots, round.slots);
  EXPECT_FALSE(parsed->ext.has_value());
  EXPECT_TRUE(parsed->ext_rejected);
}

// ------------------------------------------------- extended receiver

TEST(ExtendedReceiverTest, DeliversLoadedAndEmptyExtensionsAlike) {
  // A transport-enabled coordinator always sends the extension — with
  // zero blocks when it has nothing to acknowledge — so the extended
  // receiver's minimum frame is the 36-bit empty-extension payload.
  transport::AckExtension ext;
  ext.acks.push_back({2, 5, 0x0010});
  mac::RoundAnnouncement round;
  round.slots = 12;
  round.sequence = 60;
  for (const BitVector& payload :
       {transport::BuildAnnouncementExtended(round, ext),
        transport::BuildAnnouncementExtended(round, {})}) {
    const BitVector message = mac::BuildPlmMessage(payload);
    mac::PlmMessageReceiver receiver = mac::PlmMessageReceiver::ExtendedReceiver();
    std::optional<BitVector> delivered;
    for (Bit b : message) {
      if (auto out = receiver.PushBit(b)) delivered = std::move(out);
    }
    ASSERT_TRUE(delivered.has_value());
    EXPECT_EQ(*delivered, payload);
  }
}

TEST(ExtendedReceiverTest, LegacyReceiverHearsPrefixOfExtendedMessage) {
  transport::AckExtension ext;
  ext.acks.push_back({1, 250, 0xFFFF});
  mac::RoundAnnouncement round;
  round.slots = 20;
  round.sequence = 123;
  const BitVector message =
      mac::BuildPlmMessage(transport::BuildAnnouncementExtended(round, ext));
  mac::PlmMessageReceiver legacy(16);
  std::optional<BitVector> delivered;
  for (Bit b : message) {
    if (auto out = legacy.PushBit(b)) {
      delivered = std::move(out);
      break;  // a real tag acts on the first complete message
    }
  }
  ASSERT_TRUE(delivered.has_value());
  const auto parsed = mac::ParseAnnouncement(*delivered);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->slots, round.slots);
  EXPECT_EQ(parsed->sequence, round.sequence);
}

// ------------------------------------------------------ tag transport

TEST(TagTransportTest, BoundedQueueRejectsWhenFull) {
  TransportConfig config = Enabled();
  config.queue_capacity = 4;
  TagTransport tx(config);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(tx.Enqueue(0));
  EXPECT_FALSE(tx.Enqueue(0));
  EXPECT_EQ(tx.stats().offered, 4u);
  EXPECT_EQ(tx.stats().rejected_full, 1u);
  EXPECT_EQ(tx.pending(), 4u);
}

TEST(TagTransportTest, SendsFreshFramesInOrderWithinWindow) {
  TransportConfig config = Enabled();
  config.window = 3;
  TagTransport tx(config);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(tx.Enqueue(0));
  for (std::uint8_t expected : {0, 1, 2}) {
    const auto decision = tx.NextFrame(0);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->seq, expected);
    EXPECT_FALSE(decision->retransmission);
  }
  // Window exhausted, nothing ACKed, RTO not yet expired: silence.
  EXPECT_FALSE(tx.NextFrame(0).has_value());
}

TEST(TagTransportTest, CumulativeAckReleasesWindow) {
  TransportConfig config = Enabled();
  config.window = 2;
  TagTransport tx(config);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tx.Enqueue(0));
  ASSERT_TRUE(tx.NextFrame(0).has_value());  // seq 0
  ASSERT_TRUE(tx.NextFrame(0).has_value());  // seq 1
  TagAck ack;
  ack.cumulative = 1;  // 0 and 1 received
  tx.OnAck(ack, 1);
  EXPECT_EQ(tx.stats().acked, 2u);
  EXPECT_EQ(tx.pending(), 2u);
  const auto next = tx.NextFrame(1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->seq, 2);
}

TEST(TagTransportTest, NackTriggersSelectiveResendFirst) {
  TransportConfig config = Enabled();
  config.window = 8;
  TagTransport tx(config);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tx.Enqueue(0));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tx.NextFrame(0).has_value());
  TagAck ack;
  ack.cumulative = 0xFF;     // nothing cumulatively received
  ack.nack_bitmap = 0b001;   // seq 0 missing (coordinator saw 1 or 2)
  tx.OnAck(ack, 1);
  const auto resend = tx.NextFrame(1);
  ASSERT_TRUE(resend.has_value());
  EXPECT_EQ(resend->seq, 0);
  EXPECT_TRUE(resend->retransmission);
  EXPECT_EQ(tx.stats().retransmissions, 1u);
}

TEST(TagTransportTest, RepeatedNacksEscalateUpTheLadder) {
  TransportConfig config = Enabled();
  config.escalate_after_nacks = 2;
  config.max_escalation_steps = 2;
  TagTransport tx(config);
  ASSERT_TRUE(tx.Enqueue(0));
  ASSERT_TRUE(tx.NextFrame(0).has_value());
  TagAck nack;
  nack.cumulative = 0xFF;
  nack.nack_bitmap = 1;
  std::size_t max_steps = 0;
  for (std::size_t round = 1; round <= 8; ++round) {
    tx.OnAck(nack, round);
    const auto resend = tx.NextFrame(round);
    ASSERT_TRUE(resend.has_value());
    EXPECT_EQ(resend->seq, 0);
    max_steps = std::max(max_steps, resend->escalation_steps);
    EXPECT_LE(resend->escalation_steps, config.max_escalation_steps);
  }
  EXPECT_EQ(max_steps, config.max_escalation_steps);
  EXPECT_GT(tx.stats().escalations, 0u);
}

TEST(TagTransportTest, RtoResendsTailLossWithoutNack) {
  TransportConfig config = Enabled();
  config.rto_rounds = 3;
  TagTransport tx(config);
  ASSERT_TRUE(tx.Enqueue(0));
  ASSERT_TRUE(tx.NextFrame(0).has_value());
  EXPECT_FALSE(tx.NextFrame(1).has_value());
  EXPECT_FALSE(tx.NextFrame(2).has_value());
  const auto resend = tx.NextFrame(3);  // 3 rounds without feedback
  ASSERT_TRUE(resend.has_value());
  EXPECT_EQ(resend->seq, 0);
  EXPECT_TRUE(resend->retransmission);
}

TEST(TagTransportTest, GiveUpDropsAfterMaxTransmissions) {
  TransportConfig config = Enabled();
  config.max_transmissions = 3;
  config.rto_rounds = 1;
  TagTransport tx(config);
  ASSERT_TRUE(tx.Enqueue(0));
  std::size_t sent = 0;
  for (std::size_t round = 0; round < 10 && tx.HasPending(); ++round) {
    tx.OnRoundStart(round);
    if (tx.NextFrame(round).has_value()) ++sent;
  }
  EXPECT_EQ(sent, 3u);
  EXPECT_FALSE(tx.HasPending());
  EXPECT_EQ(tx.stats().expired, 1u);
}

TEST(TagTransportTest, GiveUpDropsAfterExpiryRounds) {
  TransportConfig config = Enabled();
  config.expiry_rounds = 5;
  config.rto_rounds = 100;  // never RTO: only age can kill it
  TagTransport tx(config);
  ASSERT_TRUE(tx.Enqueue(0));
  ASSERT_TRUE(tx.NextFrame(0).has_value());
  for (std::size_t round = 1; round <= 6; ++round) tx.OnRoundStart(round);
  EXPECT_FALSE(tx.HasPending());
  EXPECT_EQ(tx.stats().expired, 1u);
}

TEST(TagTransportTest, StaleAckFromThePastIsIgnored) {
  TransportConfig config = Enabled();
  TagTransport tx(config);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(tx.Enqueue(0));
  ASSERT_TRUE(tx.NextFrame(0).has_value());
  TagAck stale;
  stale.cumulative = 200;  // far outside anything offered
  tx.OnAck(stale, 1);
  EXPECT_EQ(tx.pending(), 2u);
  EXPECT_EQ(tx.stats().acked, 0u);
}

// ----------------------------------------------- coordinator receive

TEST(CoordinatorRxTest, InOrderDeliveryAndAck) {
  CoordinatorTagRx rx(Enabled());
  EXPECT_EQ(rx.OnFrame(0, 0), (std::vector<std::uint8_t>{0}));
  EXPECT_EQ(rx.OnFrame(1, 0), (std::vector<std::uint8_t>{1}));
  const TagAck ack = rx.Ack(7);
  EXPECT_EQ(ack.tag_id, 7);
  EXPECT_EQ(ack.cumulative, 1);
  EXPECT_EQ(ack.nack_bitmap, 0);
}

TEST(CoordinatorRxTest, DuplicateRejectedNotRedelivered) {
  CoordinatorTagRx rx(Enabled());
  EXPECT_EQ(rx.OnFrame(0, 0).size(), 1u);
  EXPECT_TRUE(rx.OnFrame(0, 0).empty());
  EXPECT_EQ(rx.stats().duplicates, 1u);
  EXPECT_EQ(rx.stats().delivered, 1u);
}

TEST(CoordinatorRxTest, OutOfOrderBuffersAndFlushes) {
  CoordinatorTagRx rx(Enabled());
  EXPECT_TRUE(rx.OnFrame(2, 0).empty());  // hole at 0,1
  EXPECT_TRUE(rx.OnFrame(1, 0).empty());
  const TagAck ack = rx.Ack(1);
  EXPECT_EQ(ack.cumulative, 0xFF);        // nothing in order yet
  EXPECT_EQ(ack.nack_bitmap & 1, 1);      // seq 0 reported missing
  const auto flushed = rx.OnFrame(0, 1);
  EXPECT_EQ(flushed, (std::vector<std::uint8_t>{0, 1, 2}));
  EXPECT_EQ(rx.stats().out_of_order, 2u);
}

TEST(CoordinatorRxTest, HoleSkipUnblocksAfterConfiguredRounds) {
  TransportConfig config = Enabled();
  config.hole_skip_rounds = 3;
  CoordinatorTagRx rx(config);
  EXPECT_TRUE(rx.OnFrame(1, 0).empty());  // 0 missing, 1 buffered
  std::vector<std::uint8_t> skipped;
  std::vector<std::uint8_t> delivered;
  for (std::size_t round = 0; round < 10 && skipped.empty(); ++round) {
    delivered = rx.OnRoundEnd(round, skipped);
  }
  EXPECT_EQ(skipped, (std::vector<std::uint8_t>{0}));
  EXPECT_EQ(delivered, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(rx.stats().holes_skipped, 1u);
  EXPECT_EQ(rx.next_expected(), 2);
}

TEST(CoordinatorRxTest, SequenceSpaceWrapsCleanly) {
  CoordinatorTagRx rx(Enabled());
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < 600; ++i) {  // > 2 wraps
    delivered += rx.OnFrame(static_cast<std::uint8_t>(i), i).size();
  }
  EXPECT_EQ(delivered, 600u);
  EXPECT_EQ(rx.stats().duplicates, 0u);
}

TEST(CoordinatorRxTest, FarFutureFrameOutsideWindowDropped) {
  TransportConfig config = Enabled();
  config.window = 8;
  CoordinatorTagRx rx(config);
  EXPECT_TRUE(rx.OnFrame(100, 0).empty());
  EXPECT_EQ(rx.stats().beyond_window, 1u);
  EXPECT_EQ(rx.next_expected(), 0);
}

// --------------------------- OOO bounds, eviction, resync semantics

TEST(CoordinatorRxTest, OooBufferIsBoundedByTheWindow) {
  TransportConfig config = Enabled();
  config.window = 8;
  CoordinatorTagRx rx(config);
  // Hole at 0: everything else inside the window buffers out of order.
  for (std::uint8_t seq = 1; seq < 8; ++seq) {
    EXPECT_TRUE(rx.OnFrame(seq, 0).empty());
  }
  EXPECT_EQ(rx.BufferedOoo(), 7u);
  // Beyond the window nothing is accepted — the reassembly memory can
  // never exceed window - 1 frames no matter what arrives.
  for (std::uint8_t seq = 8; seq < 40; ++seq) {
    EXPECT_TRUE(rx.OnFrame(seq, 0).empty());
    EXPECT_LE(rx.BufferedOoo(), config.window - 1) << "seq " << int{seq};
  }
  EXPECT_EQ(rx.BufferedOoo(), 7u);
  EXPECT_EQ(rx.stats().beyond_window, 32u);
}

TEST(CoordinatorRxTest, EvictOooFreesTheBufferAndCounts) {
  CoordinatorTagRx rx(Enabled());
  rx.OnFrame(1, 0);
  rx.OnFrame(3, 0);
  rx.OnFrame(4, 0);
  ASSERT_EQ(rx.BufferedOoo(), 3u);
  rx.EvictOoo();
  EXPECT_EQ(rx.BufferedOoo(), 0u);
  EXPECT_EQ(rx.stats().ooo_evicted, 3u);
  // The stream is intact: retransmissions of the evicted frames are
  // fresh arrivals, not duplicates, and deliver in order.
  std::vector<std::uint8_t> app;
  for (std::uint8_t seq = 0; seq < 5; ++seq) {
    for (std::uint8_t d : rx.OnFrame(seq, 1)) app.push_back(d);
  }
  EXPECT_EQ(app, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rx.stats().duplicates, 0u);
}

TEST(CoordinatorRxTest, ResyncKeepsTheAnchorWhileTheStreamIsContinuous) {
  CoordinatorTagRx rx(Enabled());
  for (std::uint8_t seq = 0; seq < 5; ++seq) rx.OnFrame(seq, 0);
  ASSERT_EQ(rx.next_expected(), 5);
  rx.BeginResync();
  // First frame heard after the silence is *inside* the window of the
  // old delivery point: the tag kept its backlog, so re-anchoring
  // would flush sequences 5 and 6 undelivered. The anchor must hold.
  EXPECT_TRUE(rx.OnFrame(7, 1).empty());
  EXPECT_EQ(rx.next_expected(), 5);
  EXPECT_EQ(rx.stats().resyncs, 0u);
  std::vector<std::uint8_t> app;
  for (std::uint8_t d : rx.OnFrame(5, 1)) app.push_back(d);
  for (std::uint8_t d : rx.OnFrame(6, 1)) app.push_back(d);
  EXPECT_EQ(app, (std::vector<std::uint8_t>{5, 6, 7}));
}

TEST(CoordinatorRxTest, ResyncReanchorsWhenTheStreamWentStale) {
  TransportConfig config = Enabled();
  config.window = 16;
  CoordinatorTagRx rx(config);
  for (std::uint8_t seq = 0; seq < 5; ++seq) rx.OnFrame(seq, 0);
  rx.BeginResync();
  // The tag gave up its backlog during the silence and moved far past
  // the window: serial comparison against the stale anchor is
  // meaningless, so the stream re-anchors on what was heard.
  const auto delivered = rx.OnFrame(40, 1);
  EXPECT_EQ(delivered, (std::vector<std::uint8_t>{40}));
  EXPECT_EQ(rx.next_expected(), 41);
  EXPECT_EQ(rx.stats().resyncs, 1u);
}

TEST(CoordinatorRxTest, ResyncConsumesItselfAfterOneFrame) {
  CoordinatorTagRx rx(Enabled());
  for (std::uint8_t seq = 0; seq < 3; ++seq) rx.OnFrame(seq, 0);
  rx.BeginResync();
  rx.OnFrame(3, 1);  // continuous: anchor holds, resync consumed
  // A later far-future frame must be rejected normally, not treated as
  // another resync opportunity.
  EXPECT_TRUE(rx.OnFrame(100, 2).empty());
  EXPECT_EQ(rx.stats().beyond_window, 1u);
  EXPECT_EQ(rx.stats().resyncs, 0u);
}

// ----------------------------- replay guard and the RxError taxonomy

// The across-the-wrap forward alias: after 300 in-order deliveries the
// delivery point sits at 44 and the window covers 45..59 — sequences
// delivered 255 positions ago on the *previous* lap. A replayed copy
// of one of them is in-window by serial arithmetic; only the
// position-stamped guard can tell it from fresh data.
TEST(CoordinatorRxTest, WrapAliasReplayRejectedByPositionGuard) {
  CoordinatorTagRx rx(Enabled());
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(rx.OnFrame(static_cast<std::uint8_t>(i), i).size(), 1u);
  }
  ASSERT_EQ(rx.next_expected(), 44);
  // Non-mutating classifier agrees up front...
  EXPECT_EQ(rx.Classify(45), RxError::kReplayAlias);
  // ...and the receive path refuses the replay.
  EXPECT_TRUE(rx.OnFrame(45, 300).empty());
  EXPECT_EQ(rx.last_error(), RxError::kReplayAlias);
  EXPECT_EQ(rx.stats().replay_rejected, 1u);
  // The poisoned sequence was not buffered: delivering 44 flushes only
  // 44, not a stale 45 from last lap.
  EXPECT_EQ(rx.OnFrame(44, 300), (std::vector<std::uint8_t>{44}));
}

// Regression documentation for the pre-guard behaviour: with the guard
// off the aliased replay is buffered as a legitimate out-of-order
// arrival and flushed as fresh data — last lap's payload delivered a
// second time. This is the bug the replay window closes.
TEST(CoordinatorRxTest, WrapAliasAcceptedWhenGuardDisabled) {
  TransportConfig config = Enabled();
  config.replay_guard = false;
  CoordinatorTagRx rx(config);
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(rx.OnFrame(static_cast<std::uint8_t>(i), i).size(), 1u);
  }
  EXPECT_TRUE(rx.OnFrame(45, 300).empty());  // buffered, not rejected
  EXPECT_EQ(rx.stats().replay_rejected, 0u);
  EXPECT_EQ(rx.OnFrame(44, 300), (std::vector<std::uint8_t>{44, 45}));
}

TEST(CoordinatorRxTest, DeepStaleClassifiedAsReplayNotRetransmit) {
  CoordinatorTagRx rx(Enabled());
  for (std::size_t i = 0; i < 100; ++i) rx.OnFrame(static_cast<std::uint8_t>(i), i);
  ASSERT_EQ(rx.next_expected(), 100);
  // 90 behind: far deeper than any honest retransmission can trail
  // (replay_stale_behind = 64) — misbehavior evidence, own counter.
  EXPECT_TRUE(rx.OnFrame(10, 100).empty());
  EXPECT_EQ(rx.last_error(), RxError::kStaleReplay);
  EXPECT_EQ(rx.stats().stale_rejected, 1u);
  // 5 behind: a plausible retransmit, a benign duplicate only. (Stale
  // replays count among duplicates too — stale_rejected is the split.)
  EXPECT_TRUE(rx.OnFrame(95, 100).empty());
  EXPECT_EQ(rx.last_error(), RxError::kDuplicate);
  EXPECT_EQ(rx.stats().duplicates, 2u);
  EXPECT_EQ(rx.stats().stale_rejected, 1u);
}

// BeginResync re-anchors the stream and must also void the replay
// memory: the old positions are meaningless after a re-anchor and the
// tag may legally resend sequences from before the silence.
TEST(CoordinatorRxTest, ResyncReanchorClearsReplayMemory) {
  CoordinatorTagRx rx(Enabled());
  for (std::uint8_t seq = 0; seq < 10; ++seq) rx.OnFrame(seq, 0);
  rx.BeginResync();
  // Re-anchor *backwards* onto a sequence delivered 5 positions ago —
  // exactly what the guard would refuse mid-stream.
  EXPECT_EQ(rx.OnFrame(5, 20), (std::vector<std::uint8_t>{5}));
  EXPECT_EQ(rx.stats().resyncs, 1u);
  EXPECT_EQ(rx.stats().replay_rejected, 0u);
  EXPECT_EQ(rx.OnFrame(6, 20), (std::vector<std::uint8_t>{6}));
}

TEST(RxErrorTest, NamesCoverTheTaxonomy) {
  const RxError all[] = {RxError::kNone,       RxError::kDuplicate,
                         RxError::kStaleReplay, RxError::kReplayAlias,
                         RxError::kBeyondWindow, RxError::kDuplicateOoo};
  std::set<std::string> names;
  for (const RxError e : all) {
    ASSERT_NE(RxErrorName(e), nullptr);
    names.insert(RxErrorName(e));
  }
  EXPECT_EQ(names.size(), 6u);  // distinct, greppable labels
  EXPECT_STREQ(RxErrorName(RxError::kReplayAlias), "replay_alias");
}

// Classify() is the embargo path's oracle: for every sequence in the
// space it must predict exactly what OnFrame would decide, without
// touching the receive state.
TEST(CoordinatorRxTest, ClassifyMatchesOnFrameAcrossTheWholeSpace) {
  const auto sweep = [](const CoordinatorTagRx& rx, const char* state) {
    const std::uint8_t anchor = rx.next_expected();
    for (int s = 0; s < 256; ++s) {
      const auto seq = static_cast<std::uint8_t>(s);
      const RxError predicted = rx.Classify(seq);
      CoordinatorTagRx trial = rx;  // state copy: probe without damage
      trial.OnFrame(seq, 400);
      EXPECT_EQ(predicted, trial.last_error()) << state << " seq " << s;
    }
    EXPECT_EQ(rx.next_expected(), anchor);  // probing mutated nothing
  };
  // Pre-wrap, with an out-of-order arrival parked in the window:
  // exercises kNone / kDuplicate / kDuplicateOoo / kBeyondWindow.
  CoordinatorTagRx fresh(Enabled());
  for (std::size_t i = 0; i < 100; ++i) {
    fresh.OnFrame(static_cast<std::uint8_t>(i), i);
  }
  fresh.OnFrame(102, 100);
  ASSERT_EQ(fresh.last_error(), RxError::kNone);  // parked, sanctioned
  sweep(fresh, "fresh");
  // Post-wrap: every in-window successor was delivered on the previous
  // lap, so the alias arm (kReplayAlias) and the stale split both live.
  CoordinatorTagRx wrapped(Enabled());
  for (std::size_t i = 0; i < 300; ++i) {
    wrapped.OnFrame(static_cast<std::uint8_t>(i), i);
  }
  sweep(wrapped, "wrapped");
}

TEST(CoordinatorTransportTest, AckRotationCoversEveryTag) {
  TransportConfig config = Enabled();
  config.ack_blocks_per_round = 2;
  transport::CoordinatorTransport coordinator(5, config);
  std::set<std::uint8_t> seen;
  for (int round = 0; round < 3; ++round) {
    const transport::AckExtension ext = coordinator.BuildExtension();
    EXPECT_LE(ext.acks.size(), 2u);
    for (const TagAck& ack : ext.acks) seen.insert(ack.tag_id);
  }
  // 5 tags, 2 blocks per round: 3 rounds cover everyone (1-based ids).
  EXPECT_EQ(seen, (std::set<std::uint8_t>{1, 2, 3, 4, 5}));
}

// ----------------------------------- end-to-end property (mini fuzz)

TEST(TransportPropertyTest, RandomLossNeverDuplicatesNorReorders) {
  Rng rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    TransportConfig config = Enabled();
    config.max_transmissions = 1000000;
    config.expiry_rounds = 1000000;
    config.hole_skip_rounds = 1000000;
    TagTransport tx(config);
    CoordinatorTagRx rx(config);
    const double loss = 0.05 + 0.5 * rng.NextDouble();
    const double ack_loss = 0.3 * rng.NextDouble();
    std::vector<std::uint8_t> app;
    std::size_t offered = 0;
    for (std::size_t round = 0; round < 400; ++round) {
      tx.OnRoundStart(round);
      if (round < 300 && round % 2 == 0 && tx.Enqueue(round)) ++offered;
      if (const auto d = tx.NextFrame(round)) {
        if (rng.NextDouble() >= loss) {
          for (std::uint8_t seq : rx.OnFrame(d->seq, round)) {
            app.push_back(seq);
          }
        }
      }
      std::vector<std::uint8_t> skipped;
      for (std::uint8_t seq : rx.OnRoundEnd(round, skipped)) {
        app.push_back(seq);
      }
      ASSERT_TRUE(skipped.empty());
      if (rng.NextDouble() >= ack_loss) tx.OnAck(rx.Ack(1), round);
    }
    // No duplicates, no reordering: the app stream is exactly 0..n-1.
    for (std::size_t i = 0; i < app.size(); ++i) {
      ASSERT_EQ(app[i], static_cast<std::uint8_t>(i))
          << "trial " << trial << " position " << i;
    }
    EXPECT_EQ(app.size() + tx.pending(), offered) << "trial " << trial;
    EXPECT_EQ(rx.stats().delivered, app.size());
  }
}

// Sequence-wraparound audit: the 8-bit counter must wrap at least
// twice (> 512 distinct frames) under loss on both sides of the loop,
// and the delivered stream must still be exactly in order with no
// duplicate and no skip — every serial-number comparison in OnAck,
// OnFrame and the NACK replay is exercised across the wrap.
TEST(TransportPropertyTest, CounterWrapsTwiceUnderLossWithoutCorruption) {
  Rng rng(271828);
  for (int trial = 0; trial < 8; ++trial) {
    TransportConfig config = Enabled();
    config.max_transmissions = 1000000;
    config.expiry_rounds = 1000000;
    config.hole_skip_rounds = 1000000;
    TagTransport tx(config);
    CoordinatorTagRx rx(config);
    const double loss = 0.05 + 0.35 * rng.NextDouble();
    const double ack_loss = 0.3 * rng.NextDouble();
    std::size_t offered = 0;
    std::size_t delivered = 0;
    std::uint8_t expected_next = 0;
    const std::size_t offer_rounds = 1500;
    for (std::size_t round = 0; round < offer_rounds + 400; ++round) {
      tx.OnRoundStart(round);
      if (round < offer_rounds && tx.Enqueue(round)) ++offered;
      if (const auto d = tx.NextFrame(round)) {
        if (rng.NextDouble() >= loss) {
          for (std::uint8_t seq : rx.OnFrame(d->seq, round)) {
            ASSERT_EQ(seq, expected_next)
                << "trial " << trial << " round " << round;
            ++expected_next;  // wraps mod 256 exactly like the wire
            ++delivered;
          }
        }
      }
      std::vector<std::uint8_t> skipped;
      ASSERT_TRUE(rx.OnRoundEnd(round, skipped).empty());
      ASSERT_TRUE(skipped.empty());
      if (rng.NextDouble() >= ack_loss) tx.OnAck(rx.Ack(1), round);
    }
    EXPECT_GT(offered, 512u) << "trial " << trial;  // >= 2 full wraps
    EXPECT_EQ(delivered + tx.pending(), offered) << "trial " << trial;
    EXPECT_GT(delivered, 512u) << "trial " << trial;
    EXPECT_EQ(rx.stats().delivered, delivered) << "trial " << trial;
    EXPECT_EQ(rx.stats().holes_skipped, 0u);
  }
}
