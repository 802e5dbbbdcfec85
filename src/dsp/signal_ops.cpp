#include "dsp/signal_ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.h"

namespace freerider::dsp {

IqBuffer MixFrequency(std::span<const Cplx> input, double freq_hz,
                      double sample_rate_hz, double phase0) {
  IqBuffer out;
  MixFrequencyInto(input, freq_hz, sample_rate_hz, phase0, out);
  return out;
}

void MixFrequencyInto(std::span<const Cplx> input, double freq_hz,
                      double sample_rate_hz, double phase0, IqBuffer& out) {
  out.resize(input.size());
  const double dphi = kTwoPi * freq_hz / sample_rate_hz;
  // Rotate incrementally with periodic renormalization to avoid drift.
  Cplx osc{std::cos(phase0), std::sin(phase0)};
  const Cplx step{std::cos(dphi), std::sin(dphi)};
  for (std::size_t n = 0; n < input.size(); ++n) {
    out[n] = input[n] * osc;
    osc *= step;
    if ((n & 0x3FFu) == 0x3FFu) osc /= std::abs(osc);
  }
}

IqBuffer SquareWaveMix(std::span<const Cplx> input, double freq_hz,
                       double sample_rate_hz, double phase0) {
  IqBuffer out(input.size());
  const double dphi = kTwoPi * freq_hz / sample_rate_hz;
  double phase = phase0;
  for (std::size_t n = 0; n < input.size(); ++n) {
    const double s = std::sin(phase);
    out[n] = input[n] * (s >= 0.0 ? 1.0 : -1.0);
    phase += dphi;
    if (phase > kTwoPi) phase -= kTwoPi;
  }
  return out;
}

IqBuffer RotatePhase(std::span<const Cplx> input, double theta) {
  IqBuffer out;
  RotatePhaseInto(input, theta, out);
  return out;
}

void RotatePhaseInto(std::span<const Cplx> input, double theta, IqBuffer& out) {
  const Cplx rot{std::cos(theta), std::sin(theta)};
  out.resize(input.size());
  for (std::size_t n = 0; n < input.size(); ++n) out[n] = input[n] * rot;
}

double MeanPower(std::span<const Cplx> input) {
  if (input.empty()) return 0.0;
  double acc = 0.0;
  for (const Cplx& x : input) acc += std::norm(x);
  return acc / static_cast<double>(input.size());
}

double PowerDbm(std::span<const Cplx> input) {
  const double p = MeanPower(input);
  if (p <= 0.0) return -300.0;  // effectively silence
  return WattsToDbm(p);
}

IqBuffer Correlate(std::span<const Cplx> input, std::span<const Cplx> pattern) {
  if (pattern.empty() || input.size() < pattern.size()) return {};
  IqBuffer out(input.size() - pattern.size() + 1);
  for (std::size_t n = 0; n < out.size(); ++n) {
    Cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < pattern.size(); ++k) {
      acc += input[n + k] * std::conj(pattern[k]);
    }
    out[n] = acc;
  }
  return out;
}

std::size_t PeakIndex(std::span<const Cplx> input) {
  std::size_t best = 0;
  double best_mag = -1.0;
  for (std::size_t n = 0; n < input.size(); ++n) {
    const double mag = std::norm(input[n]);
    if (mag > best_mag) {
      best_mag = mag;
      best = n;
    }
  }
  return best;
}

IqBuffer AddSignals(std::span<const Cplx> a, std::span<const Cplx> b) {
  IqBuffer out(std::max(a.size(), b.size()), Cplx{0.0, 0.0});
  std::copy(a.begin(), a.end(), out.begin());
  AddSignalsInPlace(out, b);
  return out;
}

void AddSignalsInPlace(std::span<Cplx> acc, std::span<const Cplx> b) {
  if (b.size() > acc.size()) {
    throw std::invalid_argument("AddSignalsInPlace: b longer than acc");
  }
  const Cplx zero{0.0, 0.0};
  for (std::size_t n = 0; n < b.size(); ++n) acc[n] = (zero + acc[n]) + b[n];
  for (std::size_t n = b.size(); n < acc.size(); ++n) acc[n] = zero + acc[n];
}

IqBuffer ScaleAmplitude(std::span<const Cplx> input, double gain) {
  IqBuffer out(input.size());
  for (std::size_t n = 0; n < input.size(); ++n) out[n] = input[n] * gain;
  return out;
}

IqBuffer DelaySamples(std::span<const Cplx> input, std::size_t delay) {
  IqBuffer out(input.size() + delay, Cplx{0.0, 0.0});
  std::copy(input.begin(), input.end(), out.begin() + static_cast<std::ptrdiff_t>(delay));
  return out;
}

}  // namespace freerider::dsp
