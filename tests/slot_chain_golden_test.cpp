// Golden slot-chain test: the excitation waveforms every PHY builds, one
// SimulateTagLink batch per radio under each fault class, and 40-round
// full-stack campaigns with collisions, faults and the whole transport,
// health, dynamics and rogue stack on.
//
// Each case pins a 64-bit FNV-1a hash of the hex-float text of its
// outputs (every sample of every waveform, every LinkStats field, every
// RoundReport and the final FullStackStats). A change to the arithmetic
// or the draw order of any stage of the slot chain (TX, power scaling,
// Translate, superposition, CFO, dropout, AWGN, phase drift, the
// interferer, RX, XOR decode) fails here by case name, and an unchanged
// hash is the proof that a rewrite of the chain kept every byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"
#include "sim/link.h"
#include "sim/multitag.h"

namespace freerider {
namespace {

class Hasher {
 public:
  void Text(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  void F(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a;", v);
    Text(buf);
  }
  void U(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu;", static_cast<unsigned long long>(v));
    Text(buf);
  }
  void Iq(std::span<const Cplx> wave) {
    U(wave.size());
    for (const Cplx& x : wave) {
      F(x.real());
      F(x.imag());
    }
  }
  template <class Ints>
  void Seq(const Ints& v) {
    U(v.size());
    for (const auto x : v) U(static_cast<std::uint64_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void HashCounters(Hasher& h, const impair::FaultCounters& c) {
  h.U(c.cfo_rotations);
  h.U(c.window_slips);
  h.U(c.interferer_bursts);
  h.U(c.excitation_dropouts);
  h.U(c.pulses_dropped);
  h.U(c.pulses_spurious);
  h.U(c.pulses_jittered);
}

// --- TX ---------------------------------------------------------------

constexpr std::size_t kWifiPayloadLengths[] = {1, 37, 100, 800};

TEST(SlotChainGolden, WifiFramesEveryRate) {
  // One hash per rate, over every payload length and two scrambler seeds.
  constexpr const char* kExpected[8] = {
      "0x4106cf68d0a0b97c", "0xa6944dc2f14d9886", "0x9471355140474675",
      "0x1d87b65d596eabdf", "0x0c321f4e344021a1", "0x9659ae611d0d9962",
      "0xa9dd37e4c4f688e9", "0x75f81043e86191f6"};
  for (std::size_t r = 0; r < 8; ++r) {
    Hasher h;
    for (const std::size_t len : kWifiPayloadLengths) {
      for (const std::uint8_t seed : {std::uint8_t{0x5D}, std::uint8_t{0x01}}) {
        Rng rng(100 * r + len + seed);
        const Bytes payload = RandomBytes(rng, len);
        phy80211::TxConfig cfg;
        cfg.rate = static_cast<phy80211::Rate>(r);
        cfg.scrambler_seed = seed;
        const phy80211::TxFrame f = phy80211::BuildFrame(payload, cfg);
        h.Iq(f.waveform);
        h.Seq(f.data_bits);
        h.Seq(f.psdu);
        h.U(f.num_data_symbols);
        h.U(f.preamble_samples);
        h.U(static_cast<std::uint64_t>(f.rate));
      }
    }
    EXPECT_EQ(Hex(h.value()), kExpected[r]) << "rate index " << r;
  }
}

TEST(SlotChainGolden, ZigbeeFrames) {
  Hasher h;
  for (const std::size_t len : {0, 1, 20, 80, 125}) {
    Rng rng(7000 + len);
    const Bytes payload = RandomBytes(rng, len);
    const phy802154::TxFrame f = phy802154::BuildFrame(payload);
    h.Iq(f.waveform);
    h.Seq(f.data_symbols);
    h.Seq(f.psdu);
    h.U(f.shr_samples);
  }
  EXPECT_EQ(Hex(h.value()), "0x80b2fa89267450d2");
}

TEST(SlotChainGolden, BleFrames) {
  Hasher h;
  for (const std::size_t len : {0, 1, 37, 200, 255}) {
    Rng rng(9000 + len);
    const Bytes payload = RandomBytes(rng, len);
    const phyble::TxFrame f = phyble::BuildFrame(payload);
    h.Iq(f.waveform);
    h.Seq(f.air_bits);
    h.Seq(f.pdu_bits);
    h.Seq(f.stream_bits);
    h.Seq(f.payload);
    h.U(f.header_bits);
  }
  EXPECT_EQ(Hex(h.value()), "0xd21e3dc7ddd9c12a");
}

// --- One link packet batch per radio and fault class --------------------

enum class Fault { kNone, kCfoDrift, kInterferer, kDropout, kAll };

impair::ImpairmentConfig FaultConfig(Fault fault) {
  impair::ImpairmentConfig c;
  if (fault == Fault::kCfoDrift || fault == Fault::kAll) {
    c.cfo.enabled = true;
    c.cfo.cfo_hz = 400.0;
    c.cfo.cfo_sigma_hz = 150.0;
    c.cfo.tag_clock_ppm = 1500.0;
    c.cfo.tag_clock_ppm_sigma = 400.0;
    c.cfo.start_slip_sigma_samples = 3.0;
  }
  if (fault == Fault::kInterferer || fault == Fault::kAll) {
    c.interferer.enabled = true;
    c.interferer.burst_probability = 1.0;
    c.interferer.burst_power_dbm = -88.0;
    c.interferer.min_fraction = 0.02;
    c.interferer.max_fraction = 0.10;
  }
  if (fault == Fault::kDropout || fault == Fault::kAll) {
    c.dropout.enabled = true;
    c.dropout.dropout_probability = 1.0;
    c.dropout.min_keep_fraction = 0.60;
    c.dropout.max_keep_fraction = 0.95;
  }
  return c;
}

void HashLink(Hasher& h, const sim::LinkStats& s) {
  h.U(s.packets_attempted);
  h.U(s.packets_decoded);
  h.F(s.packet_reception_rate);
  h.F(s.tag_ber);
  h.F(s.tag_throughput_bps);
  h.F(s.rssi_dbm);
  h.F(s.snr_db);
  h.U(s.redundancy_used);
  h.U(s.faults_injected);
  h.U(s.desync_events);
  h.U(s.rounds_recovered);
  HashCounters(h, s.fault_counters);
}

sim::LinkConfig LinkFor(core::RadioType radio, Fault fault) {
  sim::LinkConfig c;
  c.radio = radio;
  c.profile = sim::DefaultProfile(radio);
  // Every packet reaches the receiver (the stock gate would drop the
  // weak ones before any of the chain runs).
  c.profile.sensitivity_dbm = -150.0;
  c.tag_to_rx_m = radio == core::RadioType::kWifi     ? 20.0
                  : radio == core::RadioType::kZigbee ? 8.0
                                                      : 4.0;
  c.num_packets = 3;
  c.impairments = FaultConfig(fault);
  return c;
}

struct LinkCase {
  core::RadioType radio;
  const char* expected[5];  // Indexed by Fault.
};

constexpr LinkCase kLinkCases[] = {
    {core::RadioType::kWifi,
     {"0x4444acc5c34061ab", "0xaf4e9ad7c3f62403", "0x6364443839c3352b",
      "0xa03cdcc221b3e558", "0x344d65b7fb8232cd"}},
    {core::RadioType::kZigbee,
     {"0x6d25ebf7da6a7f97", "0x7bd1ad0d87f71e46", "0xd0e6e53ab18d73f5",
      "0x239807d2794a484d", "0xe51ac057979de4ab"}},
    {core::RadioType::kBluetooth,
     {"0xc2c6383e27cacaa0", "0xaaf201b16b7648d7", "0xf0e3a8e074812664",
      "0x3ed9c3178e99b950", "0xcea8429e8ba710b7"}},
};

TEST(SlotChainGolden, LinkPacketsPerRadioAndFaultClass) {
  for (const LinkCase& lc : kLinkCases) {
    for (int f = 0; f < 5; ++f) {
      const sim::LinkConfig config = LinkFor(lc.radio, static_cast<Fault>(f));
      Rng rng(4242 + static_cast<std::uint64_t>(f));
      const sim::LinkStats stats = sim::SimulateTagLink(config, rng);
      Hasher h;
      HashLink(h, stats);
      h.U(rng.NextU64());  // The chain's total draw count.
      EXPECT_EQ(Hex(h.value()), lc.expected[f])
          << "radio " << static_cast<int>(lc.radio) << " fault " << f
          << " decoded " << stats.packets_decoded;
    }
  }
}

TEST(SlotChainGolden, AdaptiveWifiLinkUnderAllFaults) {
  sim::LinkConfig config = LinkFor(core::RadioType::kWifi, Fault::kAll);
  config.num_packets = 4;
  Rng rng(77);
  const sim::LinkStats stats = sim::SimulateTagLinkAdaptive(config, rng, 2);
  Hasher h;
  HashLink(h, stats);
  h.U(rng.NextU64());
  EXPECT_EQ(Hex(h.value()), "0x96aed74955b34777");
}

// --- Full-stack rounds ---------------------------------------------------

void HashReport(Hasher& h, const sim::RoundReport& r) {
  h.U(r.round);
  h.U(r.slots);
  h.U(r.delivered.size());
  for (const auto& d : r.delivered) {
    h.U(d.tag_id);
    h.U(d.seq);
  }
  h.U(r.skipped.size());
  for (const auto& d : r.skipped) {
    h.U(d.tag_id);
    h.U(d.seq);
  }
  h.Seq(r.fired);
  h.U(r.raw_frames);
  h.U(r.duplicates);
  h.Seq(r.health);
}

void HashStats(Hasher& h, const sim::FullStackStats& s) {
  for (const std::size_t v :
       {s.rounds, s.slots_total, s.deliveries, s.observed_collisions,
        s.observed_empties, s.faults_injected, s.desync_events,
        s.sequence_gaps, s.reannouncements, s.rounds_recovered,
        s.transport_offered, s.transport_delivered, s.transport_duplicates,
        s.transport_retransmissions, s.transport_expired,
        s.transport_holes_skipped, s.transport_acked,
        s.transport_escalations, s.transport_ext_rejected,
        s.transport_rejected_full, s.health_quarantines, s.health_recoveries,
        s.health_probes_sent, s.health_probe_failures,
        s.health_boost_commands, s.health_ooo_evicted, s.health_resyncs,
        s.faded_frames, s.blackout_tag_rounds, s.rogue_extra_frames,
        s.rx_invalid_id, s.forged_ext_heard, s.forged_ext_rejected,
        s.forged_ext_accepted, s.transport_replay_rejected,
        s.transport_stale_rejected, s.suspect_frames_dropped,
        s.police_evidence, s.police_multi_fire_rounds,
        s.police_collision_suspicions, s.misbehavior_quarantines,
        s.misbehavior_bans}) {
    h.U(v);
  }
  h.Seq(s.per_tag_deliveries);
  h.F(s.airtime_s);
  h.F(s.goodput_bps);
  h.F(s.jain_fairness);
  h.F(s.backoff_airtime_s);
  HashCounters(h, s.fault_counters);
}

std::uint64_t RunRounds(const sim::FullStackConfig& config,
                        std::uint64_t seed) {
  Rng rng(seed);
  sim::FullStackSim sim(config, rng);
  Hasher h;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    // Offer every other round, as the long-run campaigns do.
    sim.SetOfferedPerRound(round % 2 == 0 ? 1 : 0);
    HashReport(h, sim.StepRound());
  }
  HashStats(h, sim.Stats());
  h.U(rng.NextU64());
  return h.value();
}

sim::FullStackConfig FullStack() {
  sim::FullStackConfig c;
  c.num_tags = 6;
  c.rounds = 40;
  c.transport.enabled = true;
  c.supervisor.enabled = true;
  c.supervisor.policing_enabled = true;
  c.policing.enabled = true;
  c.dynamics.seed = 0x5107;
  c.dynamics.gilbert.enabled = true;
  c.dynamics.blackouts.push_back({10, 16, {2}});
  c.rogue.seed = 0xBAB;
  c.rogue.tags.resize(c.num_tags);
  c.rogue.tags[5].model = impair::RogueModel::kBabbler;
  return c;
}

TEST(SlotChainGolden, FullStackWithTransportSupervisorDynamicsAndBabbler) {
  EXPECT_EQ(Hex(RunRounds(FullStack(), 2026)), "0x1acfe5fa4a0c9f5e");
}

TEST(SlotChainGolden, FullStackUnderEveryChannelFault) {
  sim::FullStackConfig c = FullStack();
  c.impairments = FaultConfig(Fault::kAll);
  c.impairments.dropout.dropout_probability = 0.3;
  c.impairments.interferer.burst_probability = 0.3;
  EXPECT_EQ(Hex(RunRounds(c, 31)), "0xd05d9b19cf348f21");
}

TEST(SlotChainGolden, LegacyFullStackUnderFaults) {
  sim::FullStackConfig c;
  c.num_tags = 4;
  c.rounds = 40;
  c.impairments = FaultConfig(Fault::kAll);
  c.impairments.dropout.dropout_probability = 0.5;
  c.impairments.interferer.burst_probability = 0.3;
  EXPECT_EQ(Hex(RunRounds(c, 5)), "0x542091db07c8a05e");
}

}  // namespace
}  // namespace freerider
