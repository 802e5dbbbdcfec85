// Golden soak replay records (sim/soak.h, docs/soak_replay.md).
//
// A replay record is the hand-over of every soak failure, so its bytes
// and its reader's verdicts are pinned: each case pins the record's
// size, a 64-bit FNV-1a hash of its bytes, and a hash of the reader's
// outcome (accepted → the record written back from what was read;
// rejected → the error message) at every truncation offset and at every
// single-byte substitution drawn from a fixed alphabet. An unchanged
// pair of hashes is the proof that a change to the record's codec kept
// the bytes, every check and every message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "sim/soak.h"

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

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// Digits, a sign, an exponent, the JSON punctuation, a letter of each
// literal, a backslash and a control byte: each one turns some part of
// a record into another valid value, another key or garbage.
constexpr std::string_view kAlphabet("07-.e\":,}]t\\\x01");

// A record written from what a parse read, or the parse's error.
std::string Reread(const std::string& text) {
  std::string error;
  const auto replay = sim::ParseSoakReplay(text, &error);
  if (!replay.has_value()) return "rejected: " + error;
  sim::SoakResult result;
  result.digest = replay->expect_digest;
  return sim::SoakReplayJson(replay->config, result);
}

std::uint64_t HashOutcomes(const std::string& record) {
  Fnv h;
  for (std::size_t cut = 0; cut <= record.size(); ++cut) {
    h.U64(cut);
    h.Str(Reread(record.substr(0, cut)));
  }
  std::string mutated = record;
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    for (const char c : kAlphabet) {
      mutated[i] = c;
      h.U64(i);
      h.U64(static_cast<unsigned char>(c));
      h.Str(Reread(mutated));
      mutated[i] = record[i];
    }
  }
  return h.value();
}

struct Pins {
  std::size_t size;
  std::uint64_t bytes;
  std::uint64_t outcomes;
};

void ExpectPinned(const sim::SoakConfig& config, const std::string& digest,
                  const Pins& pins) {
  sim::SoakResult result;
  result.digest = digest;
  const std::string record = sim::SoakReplayJson(config, result);
  Fnv bytes;
  bytes.Bytes(record);
  // Reading a record and writing it back reproduces it byte for byte.
  EXPECT_EQ(Reread(record), record);
  const std::uint64_t outcomes = HashOutcomes(record);
  EXPECT_EQ(record.size(), pins.size);
  EXPECT_EQ(bytes.value(), pins.bytes) << Hex(bytes.value()) << "\n"
                                       << record;
  EXPECT_EQ(outcomes, pins.outcomes) << Hex(outcomes);
}

TEST(SoakReplayGoldenTest, DefaultRecord) {
  ExpectPinned(sim::SoakConfig{}, "",
               {371, 0x770f0e0292025a43ull, 0x9105c2005018c0b4ull});
}

TEST(SoakReplayGoldenTest, ReplayGuardOffWithStaleBehind) {
  sim::SoakConfig config;
  config.transport.replay_guard = false;
  config.transport.replay_stale_behind = 32;
  ExpectPinned(config, "stats rounds=750\n",
               {435, 0x1f116e1029f4b905ull, 0x22d75c6b428cf874ull});
}

TEST(SoakReplayGoldenTest, ThreeSegmentsWithEveryImpairmentBlock) {
  sim::SoakConfig config;
  config.seed = 18446744073709551615ull;
  config.num_tags = 4;
  config.rounds = 120;
  config.drain_rounds = 60;
  config.offer_every = 3;
  config.strict = false;
  config.transport.window = 8;
  config.transport.queue_capacity = 48;
  config.transport.max_transmissions = 1000;
  config.transport.expiry_rounds = 1 << 20;
  config.transport.rto_rounds = 5;
  config.transport.escalate_after_nacks = 0;
  config.transport.max_escalation_steps = 2;
  config.transport.ack_blocks_per_round = 3;
  config.transport.hole_skip_rounds = 1 << 20;
  const double awkward[] = {0.1, 1e-300, 123456.789};
  for (std::size_t i = 0; i < 3; ++i) {
    const double x = awkward[i];
    sim::SoakSegment segment;
    segment.start_round = 40 * i;
    impair::ImpairmentConfig& imp = segment.impairments;
    imp.cfo.enabled = true;
    imp.cfo.cfo_hz = x;
    imp.cfo.cfo_sigma_hz = -x;
    imp.cfo.tag_clock_ppm = 20.0 + x;
    imp.cfo.tag_clock_ppm_sigma = x / 3.0;
    imp.cfo.start_slip_sigma_samples = 2.5;
    imp.interferer.enabled = true;
    imp.interferer.burst_probability = x / (1.0 + x);
    imp.interferer.burst_power_dbm = -74.0 - x;
    imp.interferer.min_fraction = 0.1;
    imp.interferer.max_fraction = 0.9;
    imp.dropout.enabled = true;
    imp.dropout.dropout_probability = 0.2;
    imp.dropout.min_keep_fraction = x;
    imp.dropout.max_keep_fraction = 0.8;
    imp.envelope.enabled = true;
    imp.envelope.miss_probability = 0.05;
    imp.envelope.spurious_probability = x * 1e-3;
    imp.envelope.spurious_max_duration_s = 1e-300;
    imp.envelope.extra_jitter_s = 123456.789e-9;
    config.schedule.push_back(segment);
  }
  ExpectPinned(config, "expired tag=1 seq=3\n",
               {2505, 0x6e9aebc1ef580f51ull, 0x014d26ed5ac072a3ull});
}

TEST(SoakReplayGoldenTest, DigestWithQuotesBackslashNewlineAndControlByte) {
  sim::SoakConfig config;
  config.seed = 7;
  sim::SoakSegment segment;
  segment.start_round = 5;
  config.schedule.push_back(segment);
  ExpectPinned(config, "a \"quoted\" back\\slash\nline\x01tab\tend",
               {988, 0x9bd1defee424263aull, 0x09098c3c4e848985ull});
}

}  // namespace
}  // namespace freerider
