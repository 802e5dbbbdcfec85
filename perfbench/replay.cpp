#include "replay.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <utility>

#include "channel/awgn.h"
#include "channel/link_budget.h"
#include "core/tag_frame.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "dsp/signal_ops.h"
#include "health/wire.h"
#include "impair/impair.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"

namespace perfbench {

namespace fr = freerider;
using fr::Bit;
using fr::Bytes;
using fr::BitVector;
using fr::Cplx;
using fr::IqBuffer;
using fr::Rng;

namespace {

// --- Re-implementations of sim/link.cpp's file-private helpers. -------

IqBuffer ApplyPhaseDrift(IqBuffer wave, double sigma_per_sample, Rng& rng) {
  if (sigma_per_sample <= 0.0) return wave;
  double phase = 0.0;
  for (auto& x : wave) {
    phase += sigma_per_sample * rng.NextGaussian();
    x *= Cplx{std::cos(phase), std::sin(phase)};
  }
  return wave;
}

IqBuffer PadBuffer(const IqBuffer& wave, std::size_t pad) {
  IqBuffer out(pad, Cplx{0.0, 0.0});
  out.insert(out.end(), wave.begin(), wave.end());
  out.insert(out.end(), pad, Cplx{0.0, 0.0});
  return out;
}

struct PacketOutcome {
  bool decoded = false;
  std::size_t tag_bits = 0;
  std::size_t tag_bit_errors = 0;
  std::size_t good_chunk_bits = 0;
  double rssi_dbm = -300.0;
  double airtime_s = 0.0;
};

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

double SampleRate(fr::core::RadioType radio) {
  return radio == fr::core::RadioType::kWifi ? fr::phy80211::kSampleRateHz
                                             : fr::phy802154::kSampleRateHz;
}

// --- One packet, in sim/link.cpp's RunOnePacket draw order. ------------

PacketOutcome ReplayPacket(const fr::sim::LinkConfig& config,
                           std::size_t redundancy, double rx_power_dbm,
                           Rng& rng, fr::impair::FaultInjector& injector,
                           Tracer& tr, LinkReplay& seen) {
  using fr::core::RadioType;
  using L = Layer;
  PacketOutcome outcome;
  const fr::impair::FrameFaults faults =
      tr.Call(L::kImpair, [&] { return injector.DrawFrame(); });
  fr::core::TranslateConfig tcfg;
  tcfg.radio = config.radio;
  tcfg.redundancy = redundancy;
  tcfg.tag_clock_ppm = faults.tag_clock_ppm;
  tcfg.start_slip_samples = faults.start_slip_samples;
  if (faults.tag_clock_ppm != 0.0 || faults.start_slip_samples != 0.0) {
    injector.CountWindowSlip();
  }
  fr::channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = SampleRate(config.radio);
  fe.noise_figure_db = config.profile.noise_figure_db;

  const Bytes payload = tr.Call(L::kHelpers, [&] {
    return fr::RandomBytes(rng, config.profile.excitation_payload_bytes);
  });

  // Tag-side chain shared by both radios once the excitation exists.
  auto reflect = [&](const IqBuffer& waveform, const BitVector& tag_bits) {
    IqBuffer scaled = tr.Call(L::kScale, [&] {
      return fr::channel::ToAbsolutePower(waveform, rx_power_dbm);
    });
    tr.Call(L::kImpair, [&] { injector.ApplyDropout(scaled, faults); });
    IqBuffer translated = tr.Call(
        L::kTranslate, [&] { return fr::core::Translate(scaled, tag_bits, tcfg); });
    return tr.Call(L::kImpair, [&] {
      return injector.ApplyCfo(std::move(translated), faults.cfo_hz,
                               fe.sample_rate_hz);
    });
  };

  if (config.radio == RadioType::kWifi) {
    const fr::phy80211::TxFrame frame = tr.Call(
        L::kWifiTx, [&] { return fr::phy80211::BuildFrame(payload, {}); });
    outcome.airtime_s = fr::phy80211::FrameDurationS(frame);
    const BitVector tag_bits = tr.Call(L::kHelpers, [&] {
      return fr::RandomBits(
          rng, fr::core::TagBitCapacity(frame.waveform.size(), tcfg));
    });
    const IqBuffer backscattered = reflect(frame.waveform, tag_bits);
    const IqBuffer padded =
        tr.Call(L::kHelpers, [&] { return PadBuffer(backscattered, 150); });
    IqBuffer rx = tr.Call(
        L::kAwgn, [&] { return fr::channel::AddThermalNoise(padded, fe, rng); });
    tr.Call(L::kImpair, [&] { injector.ApplyInterferer(rx, faults); });
    const fr::phy80211::RxResult result =
        tr.Call(L::kWifiRx, [&] { return fr::phy80211::ReceiveFrame(rx); });
    ++seen.rx_calls;
    seen.detected += result.detected ? 1 : 0;
    seen.signal_ok += result.signal_ok ? 1 : 0;
    if (!result.signal_ok) return outcome;
    outcome.decoded = true;
    outcome.rssi_dbm = result.rssi_dbm;
    const fr::core::TagDecodeResult decoded = tr.Call(L::kXorDecode, [&] {
      return fr::core::DecodeWifi(
          frame.data_bits, result.data_bits,
          fr::phy80211::ParamsFor(frame.rate).data_bits_per_symbol,
          redundancy);
    });
    tr.Call(L::kHelpers,
            [&] { ChunkAccount(tag_bits, decoded.bits, outcome); });
    return outcome;
  }

  const std::size_t psdu =
      std::min<std::size_t>(config.profile.excitation_payload_bytes, 100);
  const fr::phy802154::TxFrame frame = tr.Call(L::kZigbeeTx, [&] {
    return fr::phy802154::BuildFrame(std::span(payload).subspan(0, psdu));
  });
  outcome.airtime_s = fr::phy802154::FrameDurationS(frame);
  const BitVector tag_bits = tr.Call(L::kHelpers, [&] {
    return fr::RandomBits(
        rng, fr::core::TagBitCapacity(frame.waveform.size(), tcfg));
  });
  const IqBuffer backscattered = reflect(frame.waveform, tag_bits);
  const IqBuffer padded =
      tr.Call(L::kHelpers, [&] { return PadBuffer(backscattered, 200); });
  IqBuffer noisy = tr.Call(
      L::kAwgn, [&] { return fr::channel::AddThermalNoise(padded, fe, rng); });
  IqBuffer rx = tr.Call(L::kHelpers, [&] {
    return ApplyPhaseDrift(std::move(noisy),
                           config.profile.phase_noise_rw_rad_per_sample, rng);
  });
  tr.Call(L::kImpair, [&] { injector.ApplyInterferer(rx, faults); });
  const fr::phy802154::RxResult result =
      tr.Call(L::kZigbeeRx, [&] { return fr::phy802154::ReceiveFrame(rx); });
  ++seen.rx_calls;
  seen.detected += result.detected ? 1 : 0;
  if (!result.detected || result.data_symbols.empty()) return outcome;
  outcome.decoded = true;
  outcome.rssi_dbm = result.rssi_dbm;
  const fr::core::TagDecodeResult decoded = tr.Call(L::kXorDecode, [&] {
    return fr::core::DecodeZigbee(frame.data_symbols, result.data_symbols,
                                  redundancy);
  });
  tr.Call(L::kHelpers, [&] { ChunkAccount(tag_bits, decoded.bits, outcome); });
  return outcome;
}

}  // namespace

// --- sim::SimulateTagLink (MakeInjector → SimulateTagLinkWith →
// Aggregate → FinalizeFaultStats), in its draw order. ----------------------

LinkReplay ReplayLinkStep(const fr::sim::LinkConfig& config, Rng& rng,
                          Tracer& tr) {
  LinkReplay seen;
  fr::impair::FaultInjector injector(
      config.impairments,
      config.impairments.AnyEnabled() ? rng.NextU64() : 0);
  const std::size_t redundancy =
      config.redundancy != 0 ? config.redundancy
                             : fr::core::DefaultRedundancy(config.radio);
  fr::channel::BackscatterBudget budget;
  budget.tx_power_dbm = config.profile.tx_power_dbm;
  budget.path = config.deployment.path_model();
  const double rx_power = budget.ReceivedDbm(
      config.deployment.tx_to_tag_m, config.tag_to_rx_m,
      config.deployment.WallsTxToTag(),
      config.deployment.WallsTagToRx(config.tag_to_rx_m),
      /*include_sideband_loss=*/false);

  fr::sim::LinkStats& stats = seen.stats;
  stats.redundancy_used = redundancy;
  stats.packets_attempted = config.num_packets;
  std::size_t total_bits = 0;
  std::size_t total_errors = 0;
  std::size_t total_good_bits = 0;
  double total_airtime = 0.0;
  double rssi_sum = 0.0;
  const double sideband_db =
      fr::channel::BackscatterBudget{}.sideband_conversion_loss_db;
  for (std::size_t p = 0; p < config.num_packets; ++p) {
    const double faded_dbm = tr.Call(Layer::kHelpers, [&] {
      return rx_power + config.profile.shadowing_sigma_db * rng.NextGaussian();
    });
    if (faded_dbm - sideband_db < config.profile.sensitivity_dbm) {
      total_airtime += 1e-3 + config.profile.inter_frame_gap_s;
      continue;
    }
    const PacketOutcome o =
        ReplayPacket(config, redundancy, faded_dbm, rng, injector, tr, seen);
    total_airtime += o.airtime_s + config.profile.inter_frame_gap_s;
    if (o.decoded) {
      ++stats.packets_decoded;
      total_bits += o.tag_bits;
      total_errors += o.tag_bit_errors;
      total_good_bits += o.good_chunk_bits;
      rssi_sum += o.rssi_dbm;
    }
  }
  if (config.num_packets > 0) {
    stats.packet_reception_rate = static_cast<double>(stats.packets_decoded) /
                                  static_cast<double>(config.num_packets);
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
  stats.snr_db = fr::sim::BackscatterSnrDb(config);
  stats.fault_counters = injector.counters();
  stats.faults_injected = stats.fault_counters.total();
  return seen;
}

bool SameLinkOutcome(const fr::sim::LinkStats& a,
                     const fr::sim::LinkStats& b) {
  return a.packets_attempted == b.packets_attempted &&
         a.packets_decoded == b.packets_decoded &&
         a.packet_reception_rate == b.packet_reception_rate &&
         a.tag_ber == b.tag_ber &&
         a.tag_throughput_bps == b.tag_throughput_bps &&
         a.rssi_dbm == b.rssi_dbm && a.redundancy_used == b.redundancy_used &&
         a.faults_injected == b.faults_injected;
}

// --- One sim::FullStackSim slot (sim/multitag.cpp, "2+3. Slots"). -------

SlotReplay ReplayWifiSlot(const fr::sim::FullStackConfig& config,
                          std::size_t reflections, Rng& rng,
                          SlotLedgers& ledgers, SpanLog& log,
                          std::uint32_t step) {
  using L = Layer;
  SlotReplay out;
  // The campaign's injector is live but all-off: it draws nothing and
  // changes nothing, exactly as in FullStackSim with no impairments.
  fr::impair::FaultInjector injector(fr::impair::ImpairmentConfig{}, 0);

  Tracer base(log, ledgers.base);
  base.set_step(step);
  const Bytes payload = base.Call(L::kHelpers, [&] {
    return fr::RandomBytes(rng, config.excitation_payload_bytes);
  });
  const fr::phy80211::TxFrame excitation = base.Call(
      L::kWifiTx, [&] { return fr::phy80211::BuildFrame(payload, {}); });
  const fr::impair::FrameFaults faults =
      base.Call(L::kImpair, [&] { return injector.DrawFrame(); });
  fr::core::TranslateConfig tcfg;
  if (config.redundancy != 0) tcfg.redundancy = config.redundancy;
  tcfg.tag_clock_ppm = faults.tag_clock_ppm;
  tcfg.start_slip_samples = faults.start_slip_samples;
  const std::size_t waveform_samples = excitation.waveform.size();
  IqBuffer scaled = base.Call(L::kScale, [&] {
    return fr::channel::ToAbsolutePower(excitation.waveform,
                                        config.backscatter_rx_dbm);
  });
  base.Call(L::kImpair, [&] { injector.ApplyDropout(scaled, faults); });

  auto capacity_at = [&](std::size_t redundancy) {
    fr::core::TranslateConfig probe = tcfg;
    probe.redundancy = redundancy;
    return fr::core::TagBitCapacity(waveform_samples, probe);
  };

  // Reflection 0 is an honest tag; the rest are fires of the campaign's
  // babbler (its own id, a garbage sequence).
  Tracer reflect(log, ledgers.reflect);
  reflect.set_step(step);
  IqBuffer composite;
  for (std::size_t k = 0; k < reflections; ++k) {
    const Bytes frame_payload = {
        static_cast<std::uint8_t>(k == 0 ? 1 : config.num_tags),
        static_cast<std::uint8_t>(rng.NextU64() & 0xFFu)};
    BitVector bits = reflect.Call(
        L::kHelpers, [&] { return fr::core::EncodeTagFrame(frame_payload); });
    bits.resize(capacity_at(tcfg.redundancy), 0);
    IqBuffer reflection = reflect.Call(
        L::kTranslate, [&] { return fr::core::Translate(scaled, bits, tcfg); });
    composite = composite.empty()
                    ? std::move(reflection)
                    : reflect.Call(L::kAddSignals, [&] {
                        return fr::dsp::AddSignals(composite, reflection);
                      });
  }
  if (composite.empty()) return out;

  Tracer rx(log, ledgers.rx);
  rx.set_step(step);
  out.rx_ran = true;
  composite = rx.Call(L::kImpair, [&] {
    return injector.ApplyCfo(std::move(composite), faults.cfo_hz,
                             fr::phy80211::kSampleRateHz);
  });
  const IqBuffer padded = rx.Call(L::kHelpers, [&] {
    IqBuffer p(150, Cplx{0.0, 0.0});
    p.insert(p.end(), composite.begin(), composite.end());
    return p;
  });
  fr::channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = fr::phy80211::kSampleRateHz;
  fe.noise_figure_db = 5.0;
  IqBuffer rx_wave = rx.Call(
      L::kAwgn, [&] { return fr::channel::AddThermalNoise(padded, fe, rng); });
  rx.Call(L::kImpair, [&] { injector.ApplyInterferer(rx_wave, faults); });
  const fr::phy80211::RxResult result =
      rx.Call(L::kWifiRx, [&] { return fr::phy80211::ReceiveFrame(rx_wave); });
  out.detected = result.detected;
  out.signal_ok = result.signal_ok;
  if (!result.signal_ok) return out;

  const std::size_t frame_bits =
      fr::core::TagFrameBits(config.tag_payload_bytes);
  std::vector<std::size_t> candidates = {tcfg.redundancy};
  if (config.transport.enabled) {
    const std::size_t max_steps =
        config.transport.max_escalation_steps +
        (config.supervisor.enabled ? fr::health::kMaxBoostSteps : 0);
    for (std::size_t s = 1; s <= max_steps; ++s) {
      const std::size_t redundancy = tcfg.redundancy << s;
      if (capacity_at(redundancy) >= frame_bits) candidates.push_back(redundancy);
    }
  }
  std::set<std::pair<std::uint8_t, std::uint8_t>> seen;
  for (const std::size_t redundancy : candidates) {
    const std::vector<fr::core::TagFrame> frames = rx.Call(L::kXorDecode, [&] {
      const fr::core::TagDecodeResult decoded = fr::core::DecodeWifi(
          excitation.data_bits, result.data_bits,
          fr::phy80211::ParamsFor(excitation.rate).data_bits_per_symbol,
          redundancy);
      return fr::core::ExtractTagFrames(decoded.bits);
    });
    for (const fr::core::TagFrame& f : frames) {
      if (!f.crc_ok || f.payload.size() != config.tag_payload_bytes) continue;
      const std::uint8_t id = f.payload[0];
      if (id < 1 || id > config.num_tags) continue;
      if (seen.insert({id, f.payload[1]}).second) out.delivered = true;
    }
  }
  return out;
}

}  // namespace perfbench
