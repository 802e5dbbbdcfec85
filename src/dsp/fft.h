// Radix-2 iterative FFT/IFFT on power-of-two sizes.
//
// The 802.11 OFDM modulator/demodulator runs this at N = 64 thousands of
// times per packet, and the 802.15.4 SHR search at N = 2048 twice per
// 1533-position block of a capture, so the implementation precomputes
// twiddles per size and works in place. Finite outputs are
// bit-identical to the same radix-2 transform written with std::complex
// temporaries.
#pragma once

#include <span>

#include "common/types.h"

namespace freerider::dsp {

/// In-place forward FFT. `data.size()` must be a power of two.
void Fft(std::span<Cplx> data);

/// In-place inverse FFT including the 1/N normalization, so
/// Ifft(Fft(x)) == x.
void Ifft(std::span<Cplx> data);

/// Out-of-place convenience.
IqBuffer FftCopy(std::span<const Cplx> data);

/// True iff n is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace freerider::dsp
