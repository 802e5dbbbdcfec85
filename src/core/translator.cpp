#include "core/translator.h"

#include <algorithm>
#include <stdexcept>

#include "phy80211/params.h"
#include "phy802154/params.h"
#include "phyble/params.h"

namespace freerider::core {
namespace {

double SampleRate(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return phy80211::kSampleRateHz;
    case RadioType::kZigbee:
      return phy802154::kSampleRateHz;
    case RadioType::kBluetooth:
      return phyble::kSampleRateHz;
  }
  return 0.0;
}

/// Modulation start after the tag's timing slip, clamped to the frame.
std::size_t SlippedStart(std::size_t nominal_start, double slip_samples,
                         std::size_t frame_samples) {
  const double slipped = static_cast<double>(nominal_start) + slip_samples;
  if (slipped <= 0.0) return 0;
  const auto start = static_cast<std::size_t>(slipped + 0.5);
  return std::min(start, frame_samples);
}

}  // namespace

std::size_t DefaultRedundancy(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return 4;
    case RadioType::kZigbee:
      return 4;
    case RadioType::kBluetooth:
      return 18;
  }
  return 4;
}

std::size_t SamplesPerCodeword(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return phy80211::kSymbolLen;  // 80 samples = 4 us
    case RadioType::kZigbee:
      return phy802154::kSamplesPerSymbol;  // 128 samples = 16 us
    case RadioType::kBluetooth:
      return phyble::kSamplesPerBit;  // 8 samples = 1 us
  }
  return 0;
}

std::size_t ModulationStartSamples(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      // STF (160) + LTF (160) + SIGNAL (80) + the SERVICE-carrying
      // first data symbol (80).
      return 480;
    case RadioType::kZigbee:
      // SHR (10 symbols) + PHR (2 symbols).
      return (phy802154::kShrSymbols + 2) * phy802154::kSamplesPerSymbol;
    case RadioType::kBluetooth:
      // Preamble + access address + length byte.
      return (phyble::kPreambleBits + phyble::kAccessAddressBits + 8) *
             phyble::kSamplesPerBit;
  }
  return 0;
}

std::size_t ModulationSkipUnits(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return 1;  // first DATA symbol (SERVICE field / scrambler seed)
    case RadioType::kZigbee:
      return 2;  // PHR symbols
    case RadioType::kBluetooth:
      return 8;  // length-byte bits
  }
  return 0;
}

std::size_t TagBitCapacity(std::size_t waveform_samples,
                           const TranslateConfig& config) {
  const std::size_t start = ModulationStartSamples(config.radio);
  if (waveform_samples <= start) return 0;
  const std::size_t window =
      SamplesPerCodeword(config.radio) * config.redundancy;
  const std::size_t windows = (waveform_samples - start) / window;
  return windows * (config.quaternary ? 2 : 1);
}

double TagBitRateBps(const TranslateConfig& config) {
  const double window_s =
      static_cast<double>(SamplesPerCodeword(config.radio)) *
      static_cast<double>(config.redundancy) / SampleRate(config.radio);
  return (config.quaternary ? 2.0 : 1.0) / window_s;
}

IqBuffer Translate(std::span<const Cplx> excitation,
                   std::span<const Bit> tag_bits, const TranslateConfig& config) {
  IqBuffer out(excitation.size());
  TranslateInto(excitation, tag_bits, config, out);
  return out;
}

void TranslateInto(std::span<const Cplx> excitation,
                   std::span<const Bit> tag_bits, const TranslateConfig& config,
                   std::span<Cplx> out) {
  if (config.redundancy == 0) {
    throw std::invalid_argument("Translate: redundancy must be >= 1");
  }
  if (config.quaternary && config.radio != RadioType::kWifi) {
    throw std::invalid_argument("quaternary mode is only defined for OFDM WiFi");
  }
  if (out.size() != excitation.size()) {
    throw std::invalid_argument("Translate: output must be excitation-sized");
  }
  const std::size_t start = ModulationStartSamples(config.radio);
  const std::size_t window = SamplesPerCodeword(config.radio) * config.redundancy;
  // The tag believes its clock is nominal: it always programs the
  // nominal number of windows. Drift only moves where the boundaries
  // actually land on the air.
  const std::size_t num_windows =
      excitation.size() > start ? (excitation.size() - start) / window : 0;
  const bool drifted =
      config.tag_clock_ppm != 0.0 || config.start_slip_samples != 0.0;
  const double rate_factor = 1.0 + config.tag_clock_ppm * 1e-6;

  if (config.radio == RadioType::kBluetooth) {
    thread_local BitVector flags;
    flags.assign(num_windows, 0);
    for (std::size_t w = 0; w < num_windows && w < tag_bits.size(); ++w) {
      flags[w] = tag_bits[w];
    }
    if (!drifted) {
      tag::ApplyFskTogglePlanInto(excitation, start, window, flags,
                                  phyble::kTagDeltaFHz,
                                  SampleRate(config.radio),
                                  config.conversion_amplitude, out);
      return;
    }
    // A fast/slow ring oscillator scales the Δf toggle and the window
    // clock together; the slip shifts where modulation begins.
    const std::size_t start_eff =
        SlippedStart(start, config.start_slip_samples, excitation.size());
    const auto window_eff = static_cast<std::size_t>(std::max(
        1.0, static_cast<double>(window) * std::max(rate_factor, 1e-3) + 0.5));
    tag::ApplyFskTogglePlanInto(excitation, start_eff, window_eff, flags,
                                phyble::kTagDeltaFHz * rate_factor,
                                SampleRate(config.radio),
                                config.conversion_amplitude, out);
    return;
  }

  thread_local std::vector<double> phases;
  phases.assign(num_windows, 0.0);
  if (config.quaternary) {
    for (std::size_t w = 0; w < num_windows; ++w) {
      const std::size_t b0 = 2 * w;
      const Bit hi = b0 < tag_bits.size() ? tag_bits[b0] : 0;
      const Bit lo = b0 + 1 < tag_bits.size() ? tag_bits[b0 + 1] : 0;
      const int dibit = (hi << 1) | lo;  // Eq. 5: theta = dibit * 90°
      phases[w] = static_cast<double>(dibit) * (kPi / 2.0);
    }
  } else {
    for (std::size_t w = 0; w < num_windows && w < tag_bits.size(); ++w) {
      if (tag_bits[w]) phases[w] = kPi;  // Eq. 4
    }
  }

  if (!drifted) {
    tag::ApplyPhasePlanInto(excitation, start, window, phases,
                            config.conversion_amplitude, out);
    return;
  }
  // Drifted boundaries: express the plan per-sample (window length 1)
  // so fractional boundary positions survive — window w of the tag's
  // program covers air samples [w·W·r, (w+1)·W·r) past the slipped
  // start, r = 1 + ppm·1e-6. Rounding per window would swallow
  // sub-sample drift that only matters because it accumulates.
  const std::size_t start_eff =
      SlippedStart(start, config.start_slip_samples, excitation.size());
  const double window_eff =
      std::max(1e-3, static_cast<double>(window) * rate_factor);
  thread_local std::vector<double> sample_phases;
  // Capacity for the whole excitation, whatever this frame's slip: a
  // warm slot of the same length then never regrows the plan.
  sample_phases.reserve(excitation.size());
  sample_phases.assign(
      excitation.size() > start_eff ? excitation.size() - start_eff : 0, 0.0);
  for (std::size_t i = 0; i < sample_phases.size(); ++i) {
    const auto w =
        static_cast<std::size_t>(static_cast<double>(i) / window_eff);
    if (w < phases.size()) sample_phases[i] = phases[w];
  }
  tag::ApplyPhasePlanInto(excitation, start_eff, 1, sample_phases,
                          config.conversion_amplitude, out);
}

}  // namespace freerider::core
