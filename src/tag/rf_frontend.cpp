#include "tag/rf_frontend.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "dsp/signal_ops.h"

namespace freerider::tag {

IqBuffer ApplyPhasePlan(std::span<const Cplx> excitation, const PhasePlan& plan,
                        double conversion_amplitude) {
  IqBuffer out(excitation.size());
  ApplyPhasePlanInto(excitation, plan.start_sample, plan.samples_per_window,
                     plan.window_phases, conversion_amplitude, out);
  return out;
}

void ApplyPhasePlanInto(std::span<const Cplx> excitation,
                        std::size_t start_sample,
                        std::size_t samples_per_window,
                        std::span<const double> window_phases,
                        double conversion_amplitude, std::span<Cplx> out) {
  if (samples_per_window == 0 && !window_phases.empty()) {
    throw std::invalid_argument("PhasePlan: zero-length windows");
  }
  if (out.size() != excitation.size()) {
    throw std::invalid_argument("ApplyPhasePlanInto: out size mismatch");
  }
  const std::size_t size = excitation.size();
  // The phase is constant over each window, so the rotor's cos/sin run
  // once per run of equal phases instead of once per sample. The
  // per-sample product is unchanged, so every output byte is too.
  // Phases match by bit pattern: sin(-0.0) is -0.0, not +0.0.
  std::size_t n = 0;
  double rotor_phase = 0.0;
  Cplx rotor{std::cos(rotor_phase), std::sin(rotor_phase)};
  const auto fill = [&](std::size_t end, double phase) {
    if (std::bit_cast<std::uint64_t>(phase) !=
        std::bit_cast<std::uint64_t>(rotor_phase)) {
      rotor_phase = phase;
      rotor = Cplx{std::cos(phase), std::sin(phase)};
    }
    for (; n < end; ++n) {
      out[n] = excitation[n] * conversion_amplitude * rotor;
    }
  };
  // Phase 0 before the start, window w's phase over its samples, and
  // phase 0 again past the last window.
  if (!window_phases.empty()) {
    fill(std::min(start_sample, size), 0.0);
    for (const double phase : window_phases) {
      if (n == size) break;
      fill(n + std::min(samples_per_window, size - n), phase);
    }
  }
  fill(size, 0.0);
}

IqBuffer ApplyFskTogglePlan(std::span<const Cplx> excitation,
                            std::size_t start_sample,
                            std::size_t samples_per_window,
                            std::span<const Bit> window_flags,
                            double delta_f_hz, double sample_rate_hz,
                            double conversion_amplitude) {
  IqBuffer out(excitation.size());
  ApplyFskTogglePlanInto(excitation, start_sample, samples_per_window,
                         window_flags, delta_f_hz, sample_rate_hz,
                         conversion_amplitude, out);
  return out;
}

void ApplyFskTogglePlanInto(std::span<const Cplx> excitation,
                            std::size_t start_sample,
                            std::size_t samples_per_window,
                            std::span<const Bit> window_flags,
                            double delta_f_hz, double sample_rate_hz,
                            double conversion_amplitude, std::span<Cplx> out) {
  if (samples_per_window == 0 && !window_flags.empty()) {
    throw std::invalid_argument("FskTogglePlan: zero-length windows");
  }
  if (out.size() != excitation.size()) {
    throw std::invalid_argument("ApplyFskTogglePlanInto: out size mismatch");
  }
  const double dphi = kTwoPi * delta_f_hz / sample_rate_hz;
  double phase = 0.0;
  for (std::size_t n = 0; n < excitation.size(); ++n) {
    double gate = 1.0;
    if (n >= start_sample && !window_flags.empty()) {
      const std::size_t w = (n - start_sample) / samples_per_window;
      if (w < window_flags.size() && window_flags[w]) {
        // The Δf square wave runs continuously in the tag's oscillator;
        // the window only gates whether it reaches the switch.
        gate = (std::sin(phase) >= 0.0) ? 1.0 : -1.0;
      }
    }
    out[n] = excitation[n] * conversion_amplitude * gate;
    phase += dphi;
    if (phase > kTwoPi) phase -= kTwoPi;
  }
}

ImpedanceBank::ImpedanceBank(std::vector<double> reflection_amplitudes)
    : amplitudes_(std::move(reflection_amplitudes)) {
  if (amplitudes_.empty()) {
    throw std::invalid_argument("ImpedanceBank: no levels");
  }
  for (double a : amplitudes_) {
    if (a <= 0.0 || a > 1.0) {
      throw std::invalid_argument("ImpedanceBank: |Γ| must be in (0, 1]");
    }
  }
}

double ImpedanceBank::AmplitudeFor(std::size_t level) const {
  if (level >= amplitudes_.size()) {
    throw std::out_of_range("ImpedanceBank level");
  }
  return amplitudes_[level];
}

IqBuffer ApplyAmplitudePlan(std::span<const Cplx> excitation,
                            std::size_t start_sample,
                            std::size_t samples_per_window,
                            std::span<const std::size_t> window_levels,
                            const ImpedanceBank& bank,
                            double conversion_amplitude) {
  if (samples_per_window == 0 && !window_levels.empty()) {
    throw std::invalid_argument("AmplitudePlan: zero-length windows");
  }
  IqBuffer out(excitation.size());
  for (std::size_t n = 0; n < excitation.size(); ++n) {
    double amp = 1.0;
    if (n >= start_sample && !window_levels.empty()) {
      const std::size_t w = (n - start_sample) / samples_per_window;
      if (w < window_levels.size()) amp = bank.AmplitudeFor(window_levels[w]);
    }
    out[n] = excitation[n] * conversion_amplitude * amp;
  }
  return out;
}

}  // namespace freerider::tag
