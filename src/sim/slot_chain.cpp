#include "sim/slot_chain.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/awgn.h"
#include "dsp/signal_ops.h"

namespace freerider::sim {

// The phase sum is kept exactly; the rotor e^{i·phase} is set from
// cos/sin of it every kRotorResync samples (and after any step too
// large for the series) and otherwise advanced by e^{i·step}, whose
// series below truncates at ~1e-17 for |step| <= kSeriesStep (6σ at the
// ZigBee profile's 0.0045 rad is 0.027), under the rounding of each
// step. The products are written out in real arithmetic.
void ApplyPhaseDrift(std::span<Cplx> wave, double sigma_per_sample, Rng& rng) {
  if (sigma_per_sample <= 0.0) return;
  constexpr std::size_t kRotorResync = 64;
  constexpr double kSeriesStep = 0.03;
  double phase = 0.0;
  double rc = 1.0;
  double rs = 0.0;
  for (std::size_t n = 0; n < wave.size(); ++n) {
    const double step = sigma_per_sample * rng.NextGaussian();
    phase += step;
    if (n % kRotorResync == 0 || std::abs(step) > kSeriesStep) {
      rc = std::cos(phase);
      rs = std::sin(phase);
    } else {
      const double s2 = step * step;
      const double c = 1.0 - s2 * (0.5 - s2 * (1.0 / 24 - s2 * (1.0 / 720)));
      const double s =
          step * (1.0 - s2 * (1.0 / 6 - s2 * (1.0 / 120 - s2 * (1.0 / 5040))));
      const double next_c = rc * c - rs * s;
      rs = rc * s + rs * c;
      rc = next_c;
    }
    const double re = wave[n].real();
    const double im = wave[n].imag();
    wave[n] = Cplx{re * rc - im * rs, re * rs + im * rc};
  }
}

SlotWorkspace& ThreadLocalSlotWorkspace() {
  thread_local SlotWorkspace ws;
  return ws;
}

template <class Phy>
SlotChain<Phy>::SlotChain(SlotWorkspace& ws, std::size_t lead_pad,
                          std::size_t trail_pad)
    : ws_(ws), lead_(lead_pad), trail_(trail_pad) {
  if (ws_.borrowed) {
    throw std::logic_error("SlotChain: workspace is borrowed by a live slot");
  }
  ws_.borrowed = true;
}

template <class Phy>
SlotChain<Phy>::~SlotChain() {
  ws_.borrowed = false;
}

template <class Phy>
std::span<Cplx> SlotChain<Phy>::Composite() {
  return std::span<Cplx>(ws_.capture).subspan(lead_, samples_);
}

template <class Phy>
const typename Phy::Frame& SlotChain<Phy>::Excite(
    std::span<const std::uint8_t> payload, double rx_power_dbm,
    impair::FaultInjector& injector, const impair::FrameFaults& faults) {
  Frame& frame = Phy::FrameIn(ws_);
  Phy::Build(payload, frame);
  channel::ToAbsolutePowerInPlace(frame.waveform, rx_power_dbm);
  injector.ApplyDropout(frame.waveform, faults);
  // Pad once: the silence is written here, the middle by the first
  // reflection.
  samples_ = frame.waveform.size();
  ws_.capture.resize(lead_ + samples_ + trail_);
  std::fill_n(ws_.capture.begin(), lead_, Cplx{0.0, 0.0});
  std::fill(ws_.capture.begin() + static_cast<std::ptrdiff_t>(lead_ + samples_),
            ws_.capture.end(), Cplx{0.0, 0.0});
  excited_ = true;
  return frame;
}

template <class Phy>
void SlotChain<Phy>::Reflect(std::span<const Bit> tag_bits,
                             const core::TranslateConfig& tcfg) {
  if (!excited_) throw std::logic_error("SlotChain: Reflect before Excite");
  const std::span<const Cplx> excitation(Phy::FrameIn(ws_).waveform);
  if (reflections_ == 0) {
    core::TranslateInto(excitation, tag_bits, tcfg, Composite());
  } else {
    ws_.reflection.resize(samples_);
    core::TranslateInto(excitation, tag_bits, tcfg, ws_.reflection);
    dsp::AddSignalsInPlace(Composite(), ws_.reflection);
  }
  ++reflections_;
}

template <class Phy>
const typename Phy::Rx& SlotChain<Phy>::Receive(
    double noise_figure_db, double phase_noise_rw_rad_per_sample, Rng& rng,
    impair::FaultInjector& injector, const impair::FrameFaults& faults) {
  if (reflections_ == 0) {
    throw std::logic_error("SlotChain: Receive without a reflection");
  }
  injector.ApplyCfoInPlace(Composite(), faults.cfo_hz, Phy::kSampleRateHz);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = Phy::kSampleRateHz;
  fe.noise_figure_db = noise_figure_db;
  channel::AddThermalNoiseInPlace(ws_.capture, fe, rng);
  if constexpr (Phy::kPhaseNoise) {
    ApplyPhaseDrift(ws_.capture, phase_noise_rw_rad_per_sample, rng);
  }
  injector.ApplyInterferer(ws_.capture, faults);
  typename Phy::Rx& rx = Phy::RxIn(ws_);
  Phy::Receive(ws_.capture, rx);
  return rx;
}

template class SlotChain<WifiSlot>;
template class SlotChain<ZigbeeSlot>;
template class SlotChain<BleSlot>;

}  // namespace freerider::sim
