// 802.11 packet detection: normalized long-training-symbol correlation
// with the two-peak (64-sample spacing) confirmation rule.
//
// DetectPreambleFast splits the capture into SoA re/im arrays, scans it
// with the 8-position correlation block of dsp/kernels.h behind an
// energy gate, and takes every temporary from a dsp::Workspace, so the
// steady state allocates nothing. The returned Detection — the only
// thing the rest of the chain consumes — is byte-identical to the
// scalar per-position complex-MAC scan kept as the oracle in
// tests/phy_fastpath_test.cpp, and the perf-smoke CI job byte-diffs
// the figure campaigns against the base commit to keep it so.
//
// Degenerate inputs: windows with non-positive energy are excluded
// from the peak scan, a best correlation of exactly zero never detects
// (all-zero buffers), and a candidate whose SIGNAL symbol cannot fit
// inside the buffer is rejected (truncated captures).
//
// DetectPreambleAfterMix is the receiver's second scan, over the
// CFO-corrected capture. It returns exactly DetectPreambleFast's
// Detection of that capture, but computes it filter-and-refine from
// the first scan's correlations: rotating a 64-sample window by at most
// delta changes its correlation by at most delta * sqrt(E * E_ltf), so
// with a derived rounding allowance every position gets an upper bound,
// and only pairs whose bound reaches the detection threshold or an
// exact lower bound on the best pair are re-evaluated with the exact
// chain, in the original order and with the original tie rule.
// docs/phy_fast_path.md ("Certified second scan") derives the bound.
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

/// Vectorized scan using `ws` for every temporary.
Detection DetectPreambleFast(std::span<const Cplx> rx, double threshold,
                             dsp::Workspace& ws);

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
/// there. `mixed` must be dsp::MixFrequencyInto(raw, -cfo_hz,
/// kSampleRateHz, phase0) of that raw capture, and `first` that call's
/// result. Adds one byte per scan position to the workspace.
Detection DetectPreambleAfterMix(std::span<const Cplx> mixed, double cfo_hz,
                                 const Detection& first, double threshold,
                                 dsp::Workspace& ws);

}  // namespace freerider::phy80211
