// The FreeRider tag's RF abilities, modelled at the sample level.
//
// A tag has no DSP. Everything it does is B(t) = S(t) · T(t) where T(t)
// is the waveform of its antenna load switching (paper Eq. 1):
//  * toggling the ADG902 RF switch with a delayed square wave adds a
//    phase offset to the backscattered sideband;
//  * toggling at frequency Δf moves the signal in frequency (with a
//    mirror image and ~3.9 dB conversion loss, paper Fig. 8);
//  * selecting among terminating impedances scales the reflected
//    amplitude (Γ = (Z_T - Z_A*) / (Z_A + Z_T), paper §2.1).
//
// The 20 MHz channel-shift toggle that moves the backscatter onto an
// adjacent channel is represented by `kSidebandAmplitude`: the shifted
// sideband the backscatter receiver tunes to carries 2/π of the
// amplitude, and its mirror lands 2 channels away where nobody listens.
// (Applying the literal 20 MHz square wave would only double the sample
// rate to represent a channel we then discard; dsp::SquareWaveMix tests
// prove the equivalence.)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace freerider::tag {

/// Amplitude of the fundamental sideband of a ±1 square-wave mixer.
inline constexpr double kSidebandAmplitude = 0.6366197723675814;  // 2/pi

/// A per-window phase program: the FPGA holds each phase for
/// `samples_per_window` samples starting at `start_sample`; before the
/// start and after the last window the tag reflects unmodified (phase 0).
struct PhasePlan {
  std::size_t start_sample = 0;
  std::size_t samples_per_window = 0;
  std::vector<double> window_phases;  ///< Radians.
};

/// Apply a phase plan to the excitation, including the channel-shift
/// conversion amplitude. This is the tag for OFDM WiFi and ZigBee.
IqBuffer ApplyPhasePlan(std::span<const Cplx> excitation, const PhasePlan& plan,
                        double conversion_amplitude = kSidebandAmplitude);

/// Allocation-free ApplyPhasePlan over the plan's fields: writes all of
/// `out`, which must be excitation-sized (else std::invalid_argument)
/// and may alias `excitation`.
void ApplyPhasePlanInto(std::span<const Cplx> excitation,
                        std::size_t start_sample,
                        std::size_t samples_per_window,
                        std::span<const double> window_phases,
                        double conversion_amplitude, std::span<Cplx> out);

/// Per-window Δf toggling: windows whose flag is 1 are multiplied by a
/// square wave at `delta_f_hz` (flipping the FSK codeword); 0-windows
/// pass through. This is the tag for Bluetooth (paper Eq. 6).
IqBuffer ApplyFskTogglePlan(std::span<const Cplx> excitation,
                            std::size_t start_sample,
                            std::size_t samples_per_window,
                            std::span<const Bit> window_flags,
                            double delta_f_hz, double sample_rate_hz,
                            double conversion_amplitude = kSidebandAmplitude);

/// Allocation-free ApplyFskTogglePlan: writes all of `out`, which must
/// be excitation-sized (else std::invalid_argument) and may alias
/// `excitation`.
void ApplyFskTogglePlanInto(std::span<const Cplx> excitation,
                            std::size_t start_sample,
                            std::size_t samples_per_window,
                            std::span<const Bit> window_flags,
                            double delta_f_hz, double sample_rate_hz,
                            double conversion_amplitude, std::span<Cplx> out);

/// Discrete terminating-impedance bank: `levels` reflection amplitudes
/// in (0, 1]. Traditional tags have two (full / none); FreeRider's bank
/// has several for fine amplitude control (paper §2.1).
class ImpedanceBank {
 public:
  explicit ImpedanceBank(std::vector<double> reflection_amplitudes);

  double AmplitudeFor(std::size_t level) const;
  std::size_t num_levels() const { return amplitudes_.size(); }

 private:
  std::vector<double> amplitudes_;
};

/// Per-window amplitude program (used by the Fig. 2 invalid-codeword
/// demonstration: amplitude translation breaks OFDM).
IqBuffer ApplyAmplitudePlan(std::span<const Cplx> excitation,
                            std::size_t start_sample,
                            std::size_t samples_per_window,
                            std::span<const std::size_t> window_levels,
                            const ImpedanceBank& bank,
                            double conversion_amplitude = kSidebandAmplitude);

}  // namespace freerider::tag
