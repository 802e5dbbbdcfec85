// Golden payload test: every campaign result a checkpoint record
// carries (LinkStats, SoakResult, StressResult, AdversarialResult, and
// the capped and uncapped ViolationLog inside them) and every
// distributed-sweep wire message, and every outcome of decoding them.
//
// Each case pins two 64-bit FNV-1a hashes: one of a fixed encoded image,
// and one of the decoder's outcome (ok flag plus the target re-encoded)
// at every truncation offset and at every single-byte substitution drawn
// from a fixed alphabet. The target starts default-constructed, so the
// outcome hash also pins that a failed decode leaves it untouched. A
// change to a payload's field list, one of its bounds or the payload
// grammar therefore fails here by payload name, and an unchanged hash is
// the proof that a refactor of the codecs kept both the bytes and the
// accept/reject rule identical. (common/frame's binary framing is pinned
// separately, by frame_golden_test.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/dist/wire.h"
#include "sim/adversarial.h"
#include "sim/campaign_audit.h"
#include "sim/soak.h"
#include "sim/stress.h"
#include "sim/sweep.h"

namespace freerider {
namespace {

class Fnv {
 public:
  void Bytes(std::string_view s) {
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t HashBytes(std::string_view bytes) {
  Fnv h;
  h.Bytes(bytes);
  return h.value();
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// Digits, both grammar separators, a sign, hex-float letters, a NUL and
// a high byte: each one turns some field of the text grammar into
// another valid value or into garbage.
constexpr std::string_view kAlphabet("07 :-xp.\0\xFF", 10);

// Folds `fold(h, bytes)` over every prefix of `image` (lengths 0..size)
// and then over every substitution of one byte by an alphabet byte.
template <typename Fold>
std::uint64_t HashOutcomes(std::string_view image, Fold fold) {
  Fnv h;
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    h.U64(cut);
    fold(h, std::string(image.substr(0, cut)));
  }
  std::string mutated(image);
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    for (const char c : kAlphabet) {
      mutated[i] = c;
      h.U64(i);
      h.U64(static_cast<unsigned char>(c));
      fold(h, mutated);
      mutated[i] = image[i];
    }
  }
  return h.value();
}

// The outcome of a Serialize*/Deserialize* pair: ok, then the target
// (default-constructed before the decode) re-encoded.
template <typename T>
auto ResultFold(std::string (*encode)(const T&),
                bool (*decode)(const std::string&, T*)) {
  return [encode, decode](Fnv& h, const std::string& bytes) {
    T target;
    h.U64(decode(bytes, &target));
    h.Str(encode(target));
  };
}

struct Pins {
  std::size_t size;
  std::uint64_t bytes;
  std::uint64_t outcomes;
};

template <typename Fold>
void ExpectPinned(const std::string& image, Fold fold, const Pins& pins) {
  const std::uint64_t bytes = HashBytes(image);
  const std::uint64_t outcomes = HashOutcomes(image, fold);
  EXPECT_EQ(image.size(), pins.size);
  EXPECT_EQ(bytes, pins.bytes) << Hex(bytes);
  EXPECT_EQ(outcomes, pins.outcomes) << Hex(outcomes);
}

// ------------------------------------------------------------- results

TEST(PayloadGoldenTest, LinkStats) {
  sim::LinkStats s;
  s.packets_attempted = 40;
  s.packets_decoded = 37;
  s.packet_reception_rate = 0.925;
  s.tag_ber = std::numeric_limits<double>::infinity();
  s.tag_throughput_bps = 6250.0 / 3.0;
  s.rssi_dbm = -71.25;
  s.snr_db = -0.0;
  s.redundancy_used = 4;
  s.faults_injected = 9;
  s.desync_events = 2;
  s.rounds_recovered = 1;
  s.fault_counters.cfo_rotations = 1;
  s.fault_counters.window_slips = 2;
  s.fault_counters.interferer_bursts = 3;
  s.fault_counters.excitation_dropouts = 0;
  s.fault_counters.pulses_dropped = 5;
  s.fault_counters.pulses_spurious = 6;
  s.fault_counters.pulses_jittered = 17;
  ExpectPinned(sim::SerializeLinkStats(s),
               ResultFold(sim::SerializeLinkStats, sim::DeserializeLinkStats),
               {97, 0x6a8a71e7b9c9f458ull, 0x29aaff6d5e05b325ull});
}

TEST(PayloadGoldenTest, SoakResult) {
  sim::SoakResult r;
  r.passed = true;
  r.violations.Add(12, "skip", "tag=2 seq=7");
  r.violations.Add(30, "queue-full", "");
  sim::FullStackStats& s = r.stats;
  s.rounds = 80;
  s.slots_total = 412;
  s.deliveries = 55;
  s.observed_collisions = 21;
  s.observed_empties = 100;
  s.per_tag_deliveries = {20, 0, 35};
  s.airtime_s = 1.75;
  s.goodput_bps = 1234.5;
  s.jain_fairness = 0.8125;
  s.faults_injected = 14;
  s.desync_events = 3;
  s.sequence_gaps = 2;
  s.reannouncements = 6;
  s.rounds_recovered = 4;
  s.backoff_airtime_s = 0.03125;
  s.fault_counters.cfo_rotations = 8;
  s.fault_counters.window_slips = 7;
  s.fault_counters.interferer_bursts = 6;
  s.fault_counters.excitation_dropouts = 5;
  s.fault_counters.pulses_dropped = 4;
  s.fault_counters.pulses_spurious = 3;
  s.fault_counters.pulses_jittered = 2;
  s.transport_offered = 60;
  s.transport_delivered = 55;
  s.transport_duplicates = 1;
  s.transport_retransmissions = 19;
  s.transport_expired = 2;
  s.transport_holes_skipped = 1;
  s.transport_acked = 54;
  s.transport_escalations = 9;
  s.transport_ext_rejected = 1;
  s.transport_rejected_full = 3;
  r.digest = "soak ok\nrounds=80\n";
  ExpectPinned(sim::SerializeSoakResult(r),
               ResultFold(sim::SerializeSoakResult, sim::DeserializeSoakResult),
               {186, 0x9f1d9e5c4b5ba2c3ull, 0x712d6df1a487774full});
}

TEST(PayloadGoldenTest, StressResult) {
  sim::StressResult r;
  r.passed = false;
  r.delivery_ratio = 0.75;
  r.offered = 120;
  r.delivered = 90;
  r.expired = 7;
  r.rejected_full = 11;
  r.duplicates = 1;
  r.skipped = 4;
  r.faded_frames = 33;
  r.blackout_tag_rounds = 20;
  r.quarantines = 2;
  r.recoveries = 1;
  r.probes_sent = 16;
  r.boost_commands = 25;
  r.resyncs = 1;
  r.ooo_evicted = 3;
  r.dead_tag_audited = true;
  r.quarantine_bound_met = false;
  r.quarantine_round = 175;
  r.detection_rounds = 14;
  r.detection_bound = 12;
  r.violations.Add(176, "no_quarantine", "tag=3");
  r.digest = "stress delivery=0x1.8p-1\n";
  r.trace = std::string("TR\0\x01 9:", 7);
  ExpectPinned(
      sim::SerializeStressResult(r),
      ResultFold(sim::SerializeStressResult, sim::DeserializeStressResult),
      {131, 0xf140015f3cb8ee45ull, 0x5bdbcb70f4692998ull});
}

TEST(PayloadGoldenTest, AdversarialResult) {
  sim::AdversarialResult r;
  r.passed = true;
  r.victim_delivery = 0.9375;
  r.victim_offered = 64;
  r.victim_delivered = 60;
  r.rogue_extra_frames = 300;
  r.rx_invalid_id = 2;
  r.replay_rejected = 5;
  r.stale_rejected = 6;
  r.police_evidence = 41;
  r.collision_suspicions = 1;
  r.misbehavior_quarantines = 2;
  r.bans = 1;
  r.forged_heard = 9;
  r.forged_rejected = 8;
  r.forged_accepted = 1;
  sim::RogueAudit babbler;
  babbler.tag = 1;
  babbler.wire_id = 200;
  babbler.model = "babbler_own_id";
  babbler.via_misbehavior = true;
  babbler.quarantined = true;
  babbler.bound_met = true;
  babbler.parked_at_end = false;
  babbler.quarantine_round = 19;
  babbler.bound = 23;
  sim::RogueAudit clone = babbler;
  clone.tag = 2;
  clone.wire_id = 2;
  clone.model = "clone";
  clone.via_misbehavior = false;
  clone.bound_met = false;
  r.audits = {babbler, clone};
  r.violations.Add(3, "stale", "tag=1 seq=0");
  r.digest = "adversarial victims=0x1.ep-1\n";
  r.trace = "";
  ExpectPinned(sim::SerializeAdversarialResult(r),
               ResultFold(sim::SerializeAdversarialResult,
                          sim::DeserializeAdversarialResult),
               {173, 0x95c7e1cab48de4aaull, 0xe08400b08683bd6full});
}

// -------------------------------------------------------- ViolationLog

std::string EncodeLog(const sim::ViolationLog& log) {
  runtime::PayloadWriter w;
  log.Write(w);
  return w.Take();
}

// A log read on its own stops after its last field, so a successful read
// also reports whether the reader reached the end.
auto LogFold(std::size_t cap) {
  return [cap](Fnv& h, const std::string& bytes) {
    sim::ViolationLog log(cap);
    runtime::PayloadReader r(bytes);
    const bool ok = log.Read(r);
    h.U64(ok);
    h.U64(ok && r.AtEnd());
    h.U64(log.total());
    h.Str(EncodeLog(log));
  };
}

TEST(PayloadGoldenTest, CappedViolationLog) {
  sim::ViolationLog log(3);
  for (std::size_t i = 0; i < 5; ++i) {
    log.Add(10 + i, i % 2 ? "reorder" : "duplicate", "tag=1 seq=" +
                                                       std::to_string(i));
  }
  ExpectPinned(EncodeLog(log), LogFold(3),
               {92, 0x8cd305410b37a120ull, 0x5f660e56e037d403ull});
}

TEST(PayloadGoldenTest, UncappedViolationLog) {
  sim::ViolationLog log;
  log.Add(7, "lost", "tag=2");
  log.Add(8, "expired", "tag=2 seq=255");
  ExpectPinned(EncodeLog(log), LogFold(sim::ViolationLog::kUncapped),
               {48, 0x1b5a67a46a81baa1ull, 0x0f25a12f4e938fb3ull});
}

// ---------------------------------------------------------------- wire

// DecodeMsg on its own: the stream test in frame_golden_test flips bits
// under the frame CRC, so it never reaches a message decoder with a
// corrupt payload.
void FoldMsg(Fnv& h, const std::string& payload) {
  runtime::dist::WireMsg m;
  h.U64(runtime::dist::DecodeMsg(payload, &m));
  h.Str(runtime::dist::EncodeMsg(m));
  h.U64(static_cast<std::uint64_t>(m.type));
  h.U64(m.points);
  h.U64(m.trials);
  h.Str(m.body);
  h.Str(m.params);
  h.U64(m.ok);
  h.Str(m.error);
  h.U64(m.index);
  h.U64(static_cast<std::uint64_t>(m.status));
  h.Str(m.payload);
  h.U64(m.seq);
}

TEST(PayloadGoldenTest, WireMessages) {
  using runtime::dist::MsgType;
  std::vector<runtime::dist::WireMsg> msgs(7);
  msgs[0].type = MsgType::kStart;
  msgs[0].points = 8;
  msgs[0].trials = 3;
  msgs[0].body = "chaos_probe";
  msgs[0].params = "7:40";
  msgs[1].type = MsgType::kStartAck;
  msgs[1].ok = true;
  msgs[1].error = "";
  msgs[2].type = MsgType::kStartAck;
  msgs[2].error = "no such body";
  msgs[3].type = MsgType::kTask;
  msgs[3].index = 5;
  msgs[4].type = MsgType::kResult;
  msgs[4].index = 5;
  msgs[4].status = runtime::dist::ResultStatus::kThrew;
  msgs[4].payload = std::string("1 2:x \0\xFF", 8);
  msgs[5].type = MsgType::kHeartbeat;
  msgs[5].seq = 9;
  msgs[6].type = MsgType::kShutdown;
  const Pins pins[7] = {
      {28, 0x6875512f5ba40d2bull, 0xffbd583dd5f5f5edull},
      {7, 0x332168baaf07a0c0ull, 0xc9501ebf361c747cull},
      {20, 0x5410d2d5b98bde94ull, 0x3a353a50717e8a95ull},
      {4, 0xd8059001f3718c6bull, 0x186d7afdf5f9b4e4ull},
      {17, 0xbd114cc4d376a424ull, 0xc8c0ad6d40593349ull},
      {4, 0x17e18fcfedf561d1ull, 0x19d84290181e6eb4ull},
      {2, 0x07f57c07b4b7ad6bull, 0x5cdcda4df54c8342ull}};
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    SCOPED_TRACE("message " + std::to_string(i));
    ExpectPinned(runtime::dist::EncodeMsg(msgs[i]), FoldMsg, pins[i]);
  }
}

}  // namespace
}  // namespace freerider
