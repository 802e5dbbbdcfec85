// Radix-2 decimation-in-time FFT/IFFT on power-of-two sizes, run by one
// split-complex (structure-of-arrays) engine.
//
// The 802.11 OFDM modulator/demodulator runs this at N = 64 thousands of
// times per packet, and the 802.15.4 SHR search at N = 2048 twice per
// 1533-position block of a capture. The engine keeps the real and the
// imaginary parts in two arrays and applies the butterfly
// vr = br·wr − bi·wi, vi = br·wi + bi·wr, u ± v lane by lane, on GCC
// vector types built for the baseline ISA and for AVX2 (never FMA). It
// does on every element exactly the IEEE operations of the scalar
// radix-2 loop, with the same twiddles, so finite outputs are
// bit-identical to the same transform written with std::complex
// temporaries (docs/phy_fast_path.md, "FFT butterfly").
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"

namespace freerider::dsp {

/// In-place forward FFT. `data.size()` must be a power of two.
void Fft(std::span<Cplx> data);

/// In-place inverse FFT including the 1/N normalization, so
/// Ifft(Fft(x)) == x.
void Ifft(std::span<Cplx> data);

/// True iff n is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// The bit-reversal permutation of n points (a power of two, at most
/// 2^32): the butterflies expect input point rev[i] at position i. The
/// table lives in the calling thread's plan for n and stays valid for
/// the thread's lifetime.
std::span<const std::uint32_t> BitReversal(std::size_t n);

/// The split-complex engine. On entry re[i] + j·im[i] holds input point
/// BitReversal(n)[i]; on return the arrays hold the forward transform in
/// natural order, bit for bit what Fft writes. Callers that build their
/// input in a pass of their own (the SHR filter's spectral product) fold
/// the permutation, and any conjugation, into that pass. Runs the AVX2
/// build when the CPU has AVX2 and the baseline build otherwise; both
/// give the same bytes.
void FftSplit(double* re, double* im, std::size_t n);

/// The same transform of `x` in natural order, gathered through the bit
/// reversal by the engine's first pass; re/im receive x.size() points.
void FftSplit(std::span<const Cplx> x, double* re, double* im);

/// The two builds every transform above runs, one chosen per process,
/// exposed so tests can hold each against the oracle. The first pass
/// reads `from` (natural-order interleaved, conjugated when `inverse`)
/// or, with `from` null, re/im in bit-reversed order. The last pass
/// writes `to` (interleaved; conjugated and scaled by 1/n when
/// `inverse`) or, with `to` null, re/im in natural order. re/im hold n
/// points of scratch in between; `from` and `to` may be the same buffer.
/// Call the AVX2 build only when CpuHasAvx2() (off x86 it is the
/// baseline build).
void FftBaseline(const Cplx* from, Cplx* to, bool inverse, double* re,
                 double* im, std::size_t n);
void FftAvx2(const Cplx* from, Cplx* to, bool inverse, double* re, double* im,
             std::size_t n);

}  // namespace freerider::dsp
