#include "sim/link.h"

#include <algorithm>
#include <cmath>

#include "channel/awgn.h"
#include "common/bits.h"
#include "core/redundancy.h"
#include "sim/slot_chain.h"

namespace freerider::sim {
namespace {

double SampleRate(core::RadioType radio) {
  switch (radio) {
    case core::RadioType::kWifi:
      return phy80211::kSampleRateHz;
    case core::RadioType::kZigbee:
      return phy802154::kSampleRateHz;
    case core::RadioType::kBluetooth:
      return phyble::kSampleRateHz;
  }
  return 0.0;
}

/// Backscattered power at the receiver over the config's deployment.
double ReceivedDbm(const LinkConfig& config, bool include_sideband_loss) {
  channel::BackscatterBudget budget;
  budget.tx_power_dbm = config.profile.tx_power_dbm;
  budget.path = config.deployment.path_model();
  return budget.ReceivedDbm(config.deployment.tx_to_tag_m, config.tag_to_rx_m,
                            config.deployment.WallsTxToTag(),
                            config.deployment.WallsTagToRx(config.tag_to_rx_m),
                            include_sideband_loss);
}

struct PacketOutcome {
  bool decoded = false;
  std::size_t tag_bits = 0;
  std::size_t tag_bit_errors = 0;
  std::size_t good_chunk_bits = 0;  ///< Bits inside error-free 96-bit chunks.
  double rssi_dbm = -300.0;
  double airtime_s = 0.0;
};

/// Tag-frame-sized accounting unit for goodput.
constexpr std::size_t kChunkBits = 96;

void ChunkAccount(std::span<const Bit> sent, std::span<const Bit> decoded,
                  PacketOutcome& outcome) {
  const std::size_t n = std::min(sent.size(), decoded.size());
  outcome.tag_bits = n;
  for (std::size_t base = 0; base + 1 <= n; base += kChunkBits) {
    const std::size_t len = std::min(kChunkBits, n - base);
    std::size_t errors = 0;
    for (std::size_t i = 0; i < len; ++i) {
      errors += (sent[base + i] != decoded[base + i]) ? 1 : 0;
    }
    outcome.tag_bit_errors += errors;
    if (errors == 0) outcome.good_chunk_bits += len;
  }
}

template <class Phy>
PacketOutcome RunOnePacketOn(const LinkConfig& config, std::size_t redundancy,
                             double rx_power_dbm, Rng& rng,
                             impair::FaultInjector& injector) {
  PacketOutcome outcome;
  const impair::FrameFaults faults = injector.DrawFrame();
  core::TranslateConfig tcfg;
  tcfg.radio = config.radio;
  tcfg.redundancy = redundancy;
  tcfg.tag_clock_ppm = faults.tag_clock_ppm;
  tcfg.start_slip_samples = faults.start_slip_samples;
  if (faults.tag_clock_ppm != 0.0 || faults.start_slip_samples != 0.0) {
    injector.CountWindowSlip();
  }

  const Bytes payload =
      RandomBytes(rng, config.profile.excitation_payload_bytes);
  SlotChain<Phy> chain(ThreadLocalSlotWorkspace(), Phy::kPad, Phy::kPad);
  const typename Phy::Frame& frame = chain.Excite(
      std::span(payload).first(Phy::PayloadBytes(payload.size())),
      rx_power_dbm, injector, faults);
  outcome.airtime_s = Phy::DurationS(frame);
  const BitVector tag_bits =
      RandomBits(rng, core::TagBitCapacity(frame.waveform.size(), tcfg));
  chain.Reflect(tag_bits, tcfg);
  const typename Phy::Rx& result =
      chain.Receive(config.profile.noise_figure_db,
                    config.profile.phase_noise_rw_rad_per_sample, rng,
                    injector, faults);
  if (!Phy::Decoded(result)) return outcome;
  outcome.decoded = true;
  outcome.rssi_dbm = result.rssi_dbm;
  ChunkAccount(tag_bits, Phy::Decode(frame, result, redundancy).bits,
               outcome);
  return outcome;
}

PacketOutcome RunOnePacket(const LinkConfig& config, std::size_t redundancy,
                           double rx_power_dbm, Rng& rng,
                           impair::FaultInjector& injector) {
  switch (config.radio) {
    case core::RadioType::kWifi:
      return RunOnePacketOn<WifiSlot>(config, redundancy, rx_power_dbm, rng,
                                      injector);
    case core::RadioType::kZigbee:
      return RunOnePacketOn<ZigbeeSlot>(config, redundancy, rx_power_dbm, rng,
                                        injector);
    case core::RadioType::kBluetooth:
      return RunOnePacketOn<BleSlot>(config, redundancy, rx_power_dbm, rng,
                                     injector);
  }
  return {};
}

LinkStats Aggregate(const LinkConfig& config, std::size_t redundancy,
                    double rx_power_dbm, std::size_t packets, Rng& rng,
                    impair::FaultInjector& injector) {
  LinkStats stats;
  stats.redundancy_used = redundancy;
  stats.packets_attempted = packets;
  std::size_t total_bits = 0;
  std::size_t total_errors = 0;
  std::size_t total_good_bits = 0;
  double total_airtime = 0.0;
  double rssi_sum = 0.0;
  const double sideband_db =
      channel::BackscatterBudget{}.sideband_conversion_loss_db;
  for (std::size_t p = 0; p < packets; ++p) {
    const double faded_dbm =
        rx_power_dbm + config.profile.shadowing_sigma_db * rng.NextGaussian();
    // Sensitivity gate: below the chipset's sync floor nothing decodes.
    if (faded_dbm - sideband_db < config.profile.sensitivity_dbm) {
      total_airtime += 1e-3 + config.profile.inter_frame_gap_s;
      continue;
    }
    const PacketOutcome o =
        RunOnePacket(config, redundancy, faded_dbm, rng, injector);
    total_airtime += o.airtime_s + config.profile.inter_frame_gap_s;
    if (o.decoded) {
      ++stats.packets_decoded;
      total_bits += o.tag_bits;
      total_errors += o.tag_bit_errors;
      total_good_bits += o.good_chunk_bits;
      rssi_sum += o.rssi_dbm;
    }
  }
  // Every ratio below is guarded: a zero-packet batch, zero decoded
  // packets, or zero airtime must yield the pessimistic defaults, not
  // NaN/inf — injected faults make all three reachable.
  if (packets > 0) {
    stats.packet_reception_rate =
        static_cast<double>(stats.packets_decoded) /
        static_cast<double>(packets);
  }
  if (total_bits > 0) {
    stats.tag_ber =
        static_cast<double>(total_errors) / static_cast<double>(total_bits);
    if (total_airtime > 0.0) {
      stats.tag_throughput_bps =
          static_cast<double>(total_good_bits) / total_airtime;
    }
  }
  if (stats.packets_decoded > 0) {
    stats.rssi_dbm = rssi_sum / static_cast<double>(stats.packets_decoded);
  }
  return stats;
}

/// One injector serves a whole simulate call (probes + final batch) so
/// its counters report total fault exposure. Seeded from the master
/// stream ONLY when faults are enabled — a disabled config must not
/// advance `rng`, keeping un-impaired runs bit-identical.
impair::FaultInjector MakeInjector(const LinkConfig& config, Rng& rng) {
  return impair::FaultInjector(
      config.impairments,
      config.impairments.AnyEnabled() ? rng.NextU64() : 0);
}

void FinalizeFaultStats(LinkStats& stats,
                        const impair::FaultInjector& injector) {
  stats.fault_counters = injector.counters();
  stats.faults_injected = stats.fault_counters.total();
}

LinkStats SimulateTagLinkWith(const LinkConfig& config, Rng& rng,
                              impair::FaultInjector& injector) {
  const std::size_t redundancy = config.redundancy != 0
                                     ? config.redundancy
                                     : core::DefaultRedundancy(config.radio);
  // Power excluding the sideband loss: the tag waveform model applies it.
  const double rx_power = ReceivedDbm(config, /*include_sideband_loss=*/false);
  LinkStats stats =
      Aggregate(config, redundancy, rx_power, config.num_packets, rng,
                injector);
  stats.snr_db = BackscatterSnrDb(config);
  return stats;
}

}  // namespace

RadioProfile DefaultProfile(core::RadioType radio) {
  RadioProfile profile;
  switch (radio) {
    case core::RadioType::kWifi:
      profile.tx_power_dbm = 11.0;  // Intel 5300, §4.2.1
      profile.noise_figure_db = 5.0;
      profile.excitation_payload_bytes = 800;
      profile.sensitivity_dbm = -93.5;
      break;
    case core::RadioType::kZigbee:
      profile.tx_power_dbm = 5.0;  // CC2650 maximum
      // NF plus the implementation loss of coherently demodulating a
      // weak backscattered O-QPSK signal (phase lock on a short SHR).
      profile.noise_figure_db = 13.0;
      profile.excitation_payload_bytes = 80;
      profile.sensitivity_dbm = -93.5;
      profile.phase_noise_rw_rad_per_sample = 0.0045;
      break;
    case core::RadioType::kBluetooth:
      profile.tx_power_dbm = 0.0;  // CC2541
      // NF + discriminator implementation loss (CC2541-class
      // sensitivity rather than an ideal matched receiver).
      profile.noise_figure_db = 12.0;
      profile.excitation_payload_bytes = 200;
      profile.sensitivity_dbm = -94.0;
      break;
  }
  return profile;
}

double BackscatterRxPowerDbm(const LinkConfig& config) {
  return ReceivedDbm(config, /*include_sideband_loss=*/true);
}

double BackscatterSnrDb(const LinkConfig& config) {
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = SampleRate(config.radio);
  fe.noise_figure_db = config.profile.noise_figure_db;
  return BackscatterRxPowerDbm(config) - fe.NoiseFloorDbm();
}

LinkStats SimulateTagLink(const LinkConfig& config, Rng& rng) {
  impair::FaultInjector injector = MakeInjector(config, rng);
  LinkStats stats = SimulateTagLinkWith(config, rng, injector);
  FinalizeFaultStats(stats, injector);
  return stats;
}

LinkStats SimulateTagLinkAdaptive(const LinkConfig& config, Rng& rng,
                                  std::size_t probe_packets) {
  const auto ladder = core::RedundancyLadder(config.radio);
  const double rx_power = ReceivedDbm(config, /*include_sideband_loss=*/false);

  impair::FaultInjector injector = MakeInjector(config, rng);
  // Probe the ladder, but only trust rungs that actually decoded
  // something: a probe with zero decoded packets has no goodput signal,
  // only the absence of one. If every rung comes back empty the link is
  // marginal or fault-swamped — degrade gracefully to the most
  // redundant rung (the slowest, most decodable rate) instead of
  // defaulting to the fastest and reporting optimistic numbers.
  std::size_t best_n = ladder.back();
  double best_goodput = -1.0;
  bool any_decoded = false;
  for (std::size_t n : ladder) {
    const LinkStats probe =
        Aggregate(config, n, rx_power, probe_packets, rng, injector);
    if (probe.packets_decoded == 0) continue;
    any_decoded = true;
    if (probe.tag_throughput_bps > best_goodput) {
      best_goodput = probe.tag_throughput_bps;
      best_n = n;
    }
  }
  if (!any_decoded) best_n = ladder.back();

  LinkConfig final_config = config;
  final_config.redundancy = best_n;
  LinkStats stats = SimulateTagLinkWith(final_config, rng, injector);
  FinalizeFaultStats(stats, injector);
  return stats;
}

}  // namespace freerider::sim
