// Fixed-shape kernels for the PHY hot paths, over structure-of-arrays
// (SoA) doubles.
//
// Most are plain loops that GCC auto-vectorizes at -O2/-O3 with the
// baseline ISA. The preamble-scan block, NormalizedCorrelationX8, is
// written once over GCC vector-extension types and built twice: for
// the baseline target (SSE2 on x86-64) and under
// __attribute__((target("avx2"))). It picks a build once per process
// from the CPU. docs/phy_fast_path.md ("Build note") has the
// disassembly that motivates this.
//
// Determinism contract: each kernel fixes its accumulation shape — one
// sequential chain per output, in a fixed order — so a given input
// produces bit-identical doubles on every run, thread count and
// IEEE-754 host. The vector lanes are independent outputs, so their
// width never changes which operations a result goes through. No build
// enables FMA (the avx2 target does not imply it): a fused multiply-add
// rounds once where the source rounds twice, so contraction, not lane
// width, is what would make the bytes depend on the host.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace freerider::dsp {

/// Split an interleaved complex buffer into SoA re/im arrays (resizing
/// the outputs). The transpose is itself vectorizable and is done once
/// per buffer, amortized over every per-position kernel call.
void SplitComplex(std::span<const Cplx> input, std::vector<double>& re,
                  std::vector<double>& im);

/// Complex correlation c = sum_k x[k] * conj(p[k]) over SoA inputs,
/// returning |c|^2. Accumulation is one sequential chain per component
/// (re += xr*pr + xi*pi, im += xi*pr - xr*pi, in k order) — the same
/// chain each lane of NormalizedCorrelationX8 runs, so scan positions
/// get bit-identical doubles whether they land in a block or the
/// remainder.
double CorrelationPower(const double* x_re, const double* x_im,
                        const double* p_re, const double* p_im,
                        std::size_t len);

/// Normalized correlation of 8 adjacent scan positions, j = 0..7:
///   out8[j] = 0                                    if energy8[j] <= 0,
///   out8[j] = sqrt(P_j) / sqrt(energy8[j] * p_energy)   otherwise,
/// where P_j = CorrelationPower(x_re + j, x_im + j, p_re, p_im, len)
/// bit for bit. Reads x[0, len + 7). Runs the AVX2 build when the CPU
/// has AVX2 and the baseline build otherwise; both give the same bytes.
void NormalizedCorrelationX8(const double* x_re, const double* x_im,
                             const double* p_re, const double* p_im,
                             std::size_t len, const double* energy8,
                             double p_energy, double* out8);

/// The two builds NormalizedCorrelationX8 chooses between, exposed so
/// tests can hold each against CorrelationPower. Call the AVX2 build
/// only when CpuHasAvx2() (off x86 it is the baseline build).
void NormalizedCorrelationX8Baseline(const double* x_re, const double* x_im,
                                     const double* p_re, const double* p_im,
                                     std::size_t len, const double* energy8,
                                     double p_energy, double* out8);
void NormalizedCorrelationX8Avx2(const double* x_re, const double* x_im,
                                 const double* p_re, const double* p_im,
                                 std::size_t len, const double* energy8,
                                 double p_energy, double* out8);
bool CpuHasAvx2();

/// Sliding 64-sample window energy over SoA inputs: out[n] holds
/// sum_{k<64} |x[n+k]|^2 computed with the same add/subtract recurrence
/// as the legacy scalar scan (so the doubles match it bit-for-bit).
/// `positions` = input length - 63; out is resized to it.
void SlidingWindowEnergy64(const double* x_re, const double* x_im,
                           std::size_t positions, std::vector<double>& out);

/// The recurrence behind SlidingWindowEnergy64, for callers that fuse
/// work into it. norm(i) must return |x[i]|^2 as re * re + im * im.
/// Calls visit(n, energy, added) for n = 0 .. positions-1 in order,
/// where `energy` is SlidingWindowEnergy64's out[n] bit for bit and
/// `added` the energy step n brought in (the first window's sum at
/// n = 0, norm(n + 63) after), so the `added` of steps 0..n sum to the
/// energy of x[0, n + 64).
template <class Norm, class Visit>
void ForEachWindowEnergy64(std::size_t positions, Norm&& norm, Visit&& visit) {
  if (positions == 0) return;
  // Same recurrence (and therefore the same doubles) as the legacy
  // scalar scan: seed with the first window, then slide by adding the
  // entering sample and subtracting the leaving one.
  double acc = 0.0;
  for (std::size_t n = 0; n < 64; ++n) acc += norm(n);
  visit(std::size_t{0}, acc, acc);
  for (std::size_t n = 1; n < positions; ++n) {
    const double added = norm(n + 63);
    acc += added - norm(n - 1);
    visit(n, acc, added);
  }
}

/// Pack up to 32 unpacked bits (LSB = bits[0]) into a word — the entry
/// point of the bit-parallel despreaders (phy802154 chips). Bits must
/// be 0/1.
std::uint32_t PackBits32(std::span<const Bit> bits);

}  // namespace freerider::dsp
