#include "impair/impair.h"

#include <algorithm>
#include <cmath>

namespace freerider::impair {
namespace {

double UniformIn(Rng& rng, double lo, double hi) {
  if (hi <= lo) return lo;
  return lo + (hi - lo) * rng.NextDouble();
}

}  // namespace

void FaultCounters::Accumulate(const FaultCounters& other) {
  cfo_rotations += other.cfo_rotations;
  window_slips += other.window_slips;
  interferer_bursts += other.interferer_bursts;
  excitation_dropouts += other.excitation_dropouts;
  pulses_dropped += other.pulses_dropped;
  pulses_spurious += other.pulses_spurious;
  pulses_jittered += other.pulses_jittered;
}

FaultInjector::FaultInjector(const ImpairmentConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

FrameFaults FaultInjector::DrawFrame() {
  FrameFaults faults;
  if (config_.cfo.enabled) {
    faults.cfo_hz = config_.cfo.cfo_hz +
                    config_.cfo.cfo_sigma_hz * rng_.NextGaussian();
    faults.tag_clock_ppm =
        config_.cfo.tag_clock_ppm +
        config_.cfo.tag_clock_ppm_sigma * rng_.NextGaussian();
    faults.start_slip_samples =
        config_.cfo.start_slip_sigma_samples * rng_.NextGaussian();
  }
  if (config_.dropout.enabled &&
      rng_.NextDouble() < config_.dropout.dropout_probability) {
    faults.drop_excitation = true;
    faults.keep_fraction =
        UniformIn(rng_, config_.dropout.min_keep_fraction,
                  config_.dropout.max_keep_fraction);
  }
  if (config_.interferer.enabled &&
      rng_.NextDouble() < config_.interferer.burst_probability) {
    faults.interferer = true;
    faults.interferer_power_dbm = config_.interferer.burst_power_dbm;
    faults.interferer_span_fraction =
        UniformIn(rng_, config_.interferer.min_fraction,
                  config_.interferer.max_fraction);
    faults.interferer_start_fraction =
        UniformIn(rng_, 0.0, 1.0 - faults.interferer_span_fraction);
  }
  return faults;
}

IqBuffer FaultInjector::ApplyCfo(IqBuffer wave, double cfo_hz,
                                 double sample_rate_hz) {
  ApplyCfoInPlace(wave, cfo_hz, sample_rate_hz);
  return wave;
}

void FaultInjector::ApplyCfoInPlace(std::span<Cplx> wave, double cfo_hz,
                                    double sample_rate_hz) {
  if (cfo_hz == 0.0 || sample_rate_hz <= 0.0 || wave.empty()) return;
  const double dphi = kTwoPi * cfo_hz / sample_rate_hz;
  double phase = 0.0;
  for (auto& x : wave) {
    x *= Cplx{std::cos(phase), std::sin(phase)};
    phase += dphi;
    if (phase > kTwoPi) phase -= kTwoPi;
    if (phase < -kTwoPi) phase += kTwoPi;
  }
  ++counters_.cfo_rotations;
}

void FaultInjector::ApplyDropout(std::span<Cplx> excitation,
                                 const FrameFaults& faults) {
  if (!faults.drop_excitation || excitation.empty()) return;
  const double keep = std::clamp(faults.keep_fraction, 0.0, 1.0);
  const auto cut = static_cast<std::size_t>(
      keep * static_cast<double>(excitation.size()));
  // The sender stops; the air past the cut is silence, not absence —
  // the receiver's AGC and sync still see the buffer length.
  std::fill(excitation.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(cut, excitation.size())),
            excitation.end(), Cplx{0.0, 0.0});
  ++counters_.excitation_dropouts;
}

void FaultInjector::ApplyInterferer(std::span<Cplx> rx,
                                    const FrameFaults& faults) {
  if (!faults.interferer || rx.empty()) return;
  const double start = std::clamp(faults.interferer_start_fraction, 0.0, 1.0);
  const double span = std::clamp(faults.interferer_span_fraction, 0.0, 1.0);
  const auto n = static_cast<double>(rx.size());
  const auto begin = static_cast<std::size_t>(start * n);
  const auto end =
      std::min(rx.size(), begin + static_cast<std::size_t>(span * n));
  // Burst amplitude: sample amplitudes carry absolute scale (|x|^2 is
  // watts, the channel/awgn.h convention), and NextComplexGaussian has
  // E[|z|^2] = 1, so scale by sqrt(P_watts).
  const double sigma =
      std::sqrt(std::pow(10.0, (faults.interferer_power_dbm - 30.0) / 10.0));
  for (std::size_t i = begin; i < end; ++i) {
    rx[i] += rng_.NextComplexGaussian() * sigma;
  }
  if (end > begin) ++counters_.interferer_bursts;
}

std::vector<tag::MeasuredPulse> FaultInjector::ImpairPulses(
    std::vector<tag::MeasuredPulse> pulses) {
  if (!config_.envelope.enabled) return pulses;
  std::vector<tag::MeasuredPulse> out;
  out.reserve(pulses.size());
  for (const tag::MeasuredPulse& p : pulses) {
    if (config_.envelope.miss_probability > 0.0 &&
        rng_.NextDouble() < config_.envelope.miss_probability) {
      ++counters_.pulses_dropped;
    } else {
      tag::MeasuredPulse kept = p;
      if (config_.envelope.extra_jitter_s > 0.0) {
        kept.duration_s = std::max(
            0.0, kept.duration_s +
                     config_.envelope.extra_jitter_s * rng_.NextGaussian());
        ++counters_.pulses_jittered;
      }
      out.push_back(kept);
    }
    if (config_.envelope.spurious_probability > 0.0 &&
        rng_.NextDouble() < config_.envelope.spurious_probability) {
      tag::MeasuredPulse ghost;
      ghost.start_s = p.start_s + p.duration_s;
      ghost.duration_s =
          UniformIn(rng_, 0.0, config_.envelope.spurious_max_duration_s);
      out.push_back(ghost);
      ++counters_.pulses_spurious;
    }
  }
  return out;
}

}  // namespace freerider::impair
