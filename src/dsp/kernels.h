// Fixed-shape kernels for the PHY hot paths, over structure-of-arrays
// (SoA) doubles, plus the float32 filter kernel of the certified first
// preamble scan.
//
// Most are plain loops that GCC auto-vectorizes at -O2/-O3 with the
// baseline ISA. The preamble-scan blocks, NormalizedCorrelationX8 and
// NcorrEstimateX32, are written once over GCC vector-extension types
// and built twice: for the baseline target (SSE2 on x86-64) and under
// __attribute__((target(...))) for AVX2. Each picks a build once per
// process from the CPU. docs/phy_fast_path.md ("Build note") has the
// disassembly that motivates this.
//
// Determinism contract: each exact kernel fixes its accumulation shape
// — one sequential chain per output, in a fixed order — so a given
// input produces bit-identical doubles on every run, thread count and
// IEEE-754 host. The vector lanes are independent outputs, so their
// width never changes which operations a result goes through. No exact
// chain is ever fused (the avx2 target does not imply FMA, and
// kernels.cpp is not built with contraction): a fused multiply-add
// rounds once where the source rounds twice, so contraction, not lane
// width, is what would make the bytes depend on the host. Filter
// builds (filter_kernels.cpp, -ffp-contract=fast) may fuse: their
// values only choose which positions the exact chain evaluates, under
// an error allowance that covers fused and unfused rounding alike, so
// no output byte depends on which filter build ran.
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

/// Marks a function definition as the AVX2 build of a kernel (a no-op
/// off x86). The avx2 target does not enable FMA; the avx2,fma target
/// is for filter builds only.
#if defined(__x86_64__) || defined(__i386__)
#define FREERIDER_TARGET_AVX2 __attribute__((target("avx2")))
#define FREERIDER_TARGET_AVX2_FMA __attribute__((target("avx2,fma")))
#else
#define FREERIDER_TARGET_AVX2
#define FREERIDER_TARGET_AVX2_FMA
#endif

/// Float32 filter estimate of the normalized correlation at 32 adjacent
/// scan positions, j = 0..31:
///   out32[j] = sqrt(|c_j|^2 / (e32[j] * p_energy))   if e32[j] > 0,
///   out32[j] = +inf                                   otherwise,
/// where c_j = sum_{k<len} x[j + k] * conj(p[k]) is accumulated in
/// float, one chain per lane (fused or not, by build). Reads
/// x[0, len + 31); out32 may alias e32. Not bit-reproducible across
/// builds: callers turn it into a bound with an allowance
/// (phy80211/sync.h, kFirstScanCorrAllowance).
void NcorrEstimateX32(const float* x_re, const float* x_im, const float* p_re,
                      const float* p_im, std::size_t len, const float* e32,
                      float p_energy, float* out32);

/// The two builds NcorrEstimateX32 chooses between, exposed so tests can
/// measure each one's error. Call the AVX2 build only when
/// CpuHasAvx2Fma() (off x86 it is the baseline build).
void NcorrEstimateX32Baseline(const float* x_re, const float* x_im,
                              const float* p_re, const float* p_im,
                              std::size_t len, const float* e32,
                              float p_energy, float* out32);
void NcorrEstimateX32Avx2Fma(const float* x_re, const float* x_im,
                             const float* p_re, const float* p_im,
                             std::size_t len, const float* e32,
                             float p_energy, float* out32);
bool CpuHasAvx2Fma();

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
