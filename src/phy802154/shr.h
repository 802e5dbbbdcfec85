// SHR search for the 802.15.4 receiver: the position where the capture
// best matches the SHR tail (last two preamble symbols plus the SFD),
// by normalized cross-correlation
//
//   ncorr(n) = |c(n)| / sqrt(W(n) * R),  c(n) = sum_k rx[n+k] conj(ref[k]),
//
// with W(n) the window energy and R the reference energy. The result is
// the first position of maximal ncorr among windows with W(n) > 0,
// exactly what evaluating c(n) at every position would return.
//
// It is computed filter-and-refine: an overlap-save FFT correlation
// estimates c(n) everywhere, a derived error allowance turns the
// estimates into per-position upper bounds and a lower bound on the
// best ncorr, and only positions whose upper bound reaches that lower
// bound (or the detection threshold) are re-evaluated with the exact
// sequential chain. docs/phy_fast_path.md derives the allowance and
// proves the refined argmax equals the full scan's, ties included.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "phy802154/params.h"

namespace freerider::phy802154 {

/// Samples in the detection reference: 4 symbols of chips plus the
/// last chip's half-sine tail.
inline constexpr std::size_t kShrRefSamples =
    (4 * kChipsPerSymbol + 1) * kSamplesPerChip;

/// Overlap-save FFT size of the filter, and the scan positions one
/// block covers (every output whose window lies inside the block).
inline constexpr std::size_t kShrBlock = 2048;
inline constexpr std::size_t kShrBlockPositions =
    kShrBlock - kShrRefSamples + 1;

/// The detection reference waveform (kShrRefSamples long).
const IqBuffer& ShrReference();

/// One filter block, split: re[i] + j·im[i] is the estimate of
/// c(first + i). The other members are the block's scratch.
struct ShrBlock {
  std::vector<double> re;
  std::vector<double> im;
  std::vector<double> spectrum_re;
  std::vector<double> spectrum_im;
  IqBuffer padded;  ///< A capture's short last block, zero-padded.
};

/// Filter stage. Writes FFT estimates of c(first + i) to block.re/im[i]
/// for i < kShrBlockPositions (the arrays are resized to kShrBlock;
/// samples past the end of `rx` read as zero) and returns the allowance
/// A: for every such position whose window lies inside `rx`,
/// |estimate(i) - chain(first + i)| <= A, where chain(n) is c(n) as the
/// exact scan accumulates it. A is infinite or NaN when the block holds
/// a non-finite sample or its energy overflows. The estimates are the
/// bytes of Ifft(Fft(block) · conj(Fft(ref))): the split form folds the
/// permutations and conjugations into the passes it makes anyway.
double EstimateShrBlock(std::span<const Cplx> rx, std::size_t first,
                        ShrBlock& block);

struct ShrPeak {
  double ncorr = 0.0;        ///< Best normalized correlation; 0 if none.
  std::size_t position = 0;  ///< Its sample index; 0 if none.
  Cplx corr{0.0, 0.0};       ///< Its exact correlation c(position).
};

/// The full scan's peak whenever its ncorr >= `threshold`; otherwise a
/// peak with ncorr < `threshold` (positions that cannot reach the
/// threshold are not refined). Requires rx.size() >= kShrRefSamples.
/// Scratch lives in a thread-local workspace: no steady-state heap
/// allocations.
ShrPeak FindShr(std::span<const Cplx> rx, double threshold);

}  // namespace freerider::phy802154
