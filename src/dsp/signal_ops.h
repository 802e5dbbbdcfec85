// Elementary signal operations shared by the PHYs, the tag model and the
// channel: mixing (NCO), square-wave mixing (what the tag's RF switch
// actually does), correlation, power/RSSI estimation.
#pragma once

#include <span>

#include "common/types.h"

namespace freerider::dsp {

/// Numerically controlled oscillator: multiplies a buffer by
/// exp(j(2π f/fs n + phase0)). This is the *ideal* (single-sideband)
/// frequency shifter; real tags can only approximate it (see
/// SquareWaveMixer).
IqBuffer MixFrequency(std::span<const Cplx> input, double freq_hz,
                      double sample_rate_hz, double phase0 = 0.0);

/// Allocation-free MixFrequency: writes into `out` (resized to match).
/// Same oscillator recurrence, so the samples are bit-identical to
/// MixFrequency. `out` may alias `input` (elementwise operation).
void MixFrequencyInto(std::span<const Cplx> input, double freq_hz,
                      double sample_rate_hz, double phase0, IqBuffer& out);

/// Multiply by a ±1 square wave of frequency `freq_hz` with initial
/// phase `phase0` (radians of the square-wave cycle).
///
/// This models the tag toggling its RF transistor: a real square wave is
/// (4/π)[sin(ωt) + sin(3ωt)/3 + ...], so the product has images at ±f
/// (each 4/π·1/2 ≈ -3.9 dB below the input) plus odd harmonics — exactly
/// the double-sideband behaviour of paper §3.2.3 / Fig. 8.
IqBuffer SquareWaveMix(std::span<const Cplx> input, double freq_hz,
                       double sample_rate_hz, double phase0 = 0.0);

/// Apply a constant phase rotation exp(jθ).
IqBuffer RotatePhase(std::span<const Cplx> input, double theta);

/// Allocation-free RotatePhase: writes into `out` (resized to match).
/// Same per-sample product, so the samples are bit-identical.
void RotatePhaseInto(std::span<const Cplx> input, double theta, IqBuffer& out);

/// Mean power of a buffer (E[|x|^2]); 0 for empty input.
double MeanPower(std::span<const Cplx> input);

/// Mean power in dBm, treating |x|^2 == 1.0 as 0 dBm reference scaled by
/// `ref_dbm`. The simulator carries absolute scale in the sample
/// amplitudes, so ref_dbm defaults to 30 dB (|x|^2 in watts).
double PowerDbm(std::span<const Cplx> input);

/// Cross-correlate `input` against `pattern` (complex conjugate), output
/// length input.size() - pattern.size() + 1. Used by packet detectors.
IqBuffer Correlate(std::span<const Cplx> input, std::span<const Cplx> pattern);

/// Index of the maximum-magnitude element; 0 for empty input.
std::size_t PeakIndex(std::span<const Cplx> input);

/// Element-wise sum of two buffers (shorter length governs the overlap,
/// the longer tail is kept). Models superposition at a receiver antenna.
IqBuffer AddSignals(std::span<const Cplx> a, std::span<const Cplx> b);

/// AddSignals(acc, b) written over `acc` (b no longer than acc), with
/// the same `0 + a + b` sums: a -0.0 in `acc` becomes +0.0 as there.
void AddSignalsInPlace(std::span<Cplx> acc, std::span<const Cplx> b);

/// Scale amplitude by `gain` (linear amplitude, not power).
IqBuffer ScaleAmplitude(std::span<const Cplx> input, double gain);

/// Delay by an integer number of samples (zero-filled head).
IqBuffer DelaySamples(std::span<const Cplx> input, std::size_t delay);

}  // namespace freerider::dsp
