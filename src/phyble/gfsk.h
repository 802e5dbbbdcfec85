// GFSK modulation and discriminator demodulation for the BLE PHY.
//
// The transmitter integrates a Gaussian-filtered NRZ bit stream into
// phase (continuous-phase FSK); the receiver applies a channel-select
// low-pass (this is the filter that rejects the tag's unwanted
// sideband, paper Eq. 10) followed by a polar discriminator.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "phyble/params.h"

namespace freerider::phyble {

/// Modulate bits to a unit-amplitude GFSK waveform at kSampleRateHz.
/// bit 1 -> +kFreqDeviationHz, bit 0 -> -kFreqDeviationHz.
IqBuffer ModulateBits(std::span<const Bit> bits);

/// Allocation-free ModulateBits: `out` is resized and fully rewritten,
/// and the NRZ and shaped intermediates live in thread-local scratch.
void ModulateBitsInto(std::span<const Bit> bits, IqBuffer& out);

/// Channel-select filter: low-pass with cutoff ~0.6 * bandwidth/2
/// margin, applied before demodulation.
IqBuffer ChannelFilter(std::span<const Cplx> rx);
void ChannelFilterInto(std::span<const Cplx> rx, IqBuffer& out);

/// Polar discriminator: instantaneous frequency (Hz) per sample.
std::vector<double> Discriminate(std::span<const Cplx> rx);
void DiscriminateInto(std::span<const Cplx> rx, std::vector<double>& freq);

/// Average instantaneous frequency over the center half of bit `k`
/// given the sample index of bit 0's start. Used by the bit slicer.
double BitFrequency(std::span<const double> inst_freq, std::size_t bit_start,
                    std::size_t bit_index);

}  // namespace freerider::phyble
