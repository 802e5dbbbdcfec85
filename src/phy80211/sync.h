// 802.11 packet detection: normalized long-training-symbol correlation
// with the two-peak (64-sample spacing) confirmation rule.
//
// DetectPreambleFast is certified filter-and-refine. One pass runs the
// exact sliding window-energy recurrence, a float32 correlation block
// (dsp::NcorrEstimateX32) estimates every position's normalized
// correlation from prescaled float samples, and a derived allowance
// turns each estimate into an upper bound on the exact value. Only the
// 8-position blocks holding a position whose bound reaches the cutoff
// (the threshold, raised to the exact pair at the best estimated pair)
// run the exact double chain of dsp/kernels.h, and the pairs the
// screen kept are offered to the pair rule in ascending order. The
// returned Detection — the only thing the rest of the chain consumes —
// is byte-identical to the scalar per-position complex-MAC scan kept as
// the oracle in tests/phy_fastpath_test.cpp, and the perf-smoke CI job
// byte-diffs the figure campaigns against the base commit to keep it
// so. Every temporary comes from a dsp::Workspace, so the steady state
// allocates nothing. docs/phy_fast_path.md ("Certified first scan")
// derives the allowance.
//
// Afterwards ws.ncorr holds, for every window the scan does not gate,
// either its exact normalized correlation (blocks the refine ran) or an
// upper bound on it below the cutoff (+inf where the filter gives no
// bound). A capture with a non-finite sample, or one whose energies
// fall outside the float filter's range, is scanned exactly throughout.
//
// Degenerate inputs: windows with non-positive energy are excluded
// from the peak scan, a best correlation of exactly zero never detects
// (all-zero buffers), and a candidate whose SIGNAL symbol cannot fit
// inside the buffer is rejected (truncated captures).
//
// DetectPreambleAfterMix is the receiver's second scan, over the
// CFO-corrected capture. It returns exactly DetectPreambleFast's
// Detection of that capture, but bounds it from the first scan's
// ws.ncorr: rotating a 64-sample window by at most delta changes its
// correlation by at most delta * sqrt(E * E_ltf), so with a derived
// rounding allowance every position gets an upper bound. An upper
// bound c1 on the first scan's correlation serves as well as the exact
// value, since the bound only grows with c1. Both scans then share one
// refine stage, run in the original order and with the original tie
// rule. docs/phy_fast_path.md ("Certified second scan") derives that
// bound.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"
#include "dsp/workspace.h"

namespace freerider::phy80211 {

struct Detection {
  bool found = false;
  std::size_t second_ltf_start = 0;  ///< Start of the 2nd long symbol.
};

/// Certified filter-and-refine scan using `ws` for every temporary.
Detection DetectPreambleFast(std::span<const Cplx> rx, double threshold,
                             dsp::Workspace& ws);

/// Allowance of DetectPreambleFast's bound: the float filter's estimate
/// plus this is at least the exact chain's normalized correlation. It
/// covers float rounding (fused or not), the float conversions of the
/// samples, the template and the energies, underflow, and the exact
/// chain's own rounding; docs/phy_fast_path.md derives a worst case
/// about 160 times smaller.
inline constexpr double kFirstScanCorrAllowance = 1e-3;

/// Allowances of DetectPreambleAfterMix's bound, each at least 10^3
/// times the worst case docs/phy_fast_path.md derives for it:
/// correlation rounding and mixer-oscillator drift, in units of
/// sqrt(E * E_ltf); sliding-energy cancellation, in units of the
/// capture's energy up to the window's end; and the relative rounding
/// of the normalizations and of the bound itself.
inline constexpr double kRescanCorrAllowance = 1e-8;
inline constexpr double kRescanEnergyAllowance = 1e-10;
inline constexpr double kRescanRelAllowance = 1e-10;

/// DetectPreambleFast(mixed, threshold, ws), computed from the scan of
/// the raw capture that the last DetectPreambleFast call on `ws` left
/// there (exact correlations or upper bounds on them). `mixed` must be
/// dsp::MixFrequencyInto(raw, -cfo_hz, kSampleRateHz, phase0) of that
/// raw capture, and `first` that call's result.
Detection DetectPreambleAfterMix(std::span<const Cplx> mixed, double cfo_hz,
                                 const Detection& first, double threshold,
                                 dsp::Workspace& ws);

}  // namespace freerider::phy80211
