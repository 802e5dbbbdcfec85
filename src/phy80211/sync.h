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

}  // namespace freerider::phy80211
