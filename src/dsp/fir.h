// FIR filtering and pulse-shaping taps.
//
// Used for the BLE Gaussian shaper, the ZigBee half-sine shaper, and
// receiver channel-selection filters (which is what lets a Bluetooth
// receiver reject the unwanted backscatter sideband, paper §3.2.3).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace freerider::dsp {

/// Direct-form FIR filter over complex samples with real taps.
/// `Filter` is stateless (one-shot over a buffer, zero-padded edges);
/// for streaming use, keep your own overlap.
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  /// y[n] = sum_k taps[k] * x[n-k], same length as input.
  IqBuffer Filter(std::span<const Cplx> input) const;

  /// Allocation-free Filter: `out` (which must not alias `input`) is
  /// resized to the input length and fully rewritten.
  void FilterInto(std::span<const Cplx> input, IqBuffer& out) const;

  const std::vector<double>& taps() const { return taps_; }

 private:
  std::vector<double> taps_;
};

/// Windowed-sinc low-pass taps. `cutoff_norm` is the cutoff as a fraction
/// of the sample rate (0 < cutoff_norm < 0.5); `num_taps` should be odd.
/// Hamming window. Taps are normalized to unit DC gain.
std::vector<double> LowPassTaps(double cutoff_norm, std::size_t num_taps);

/// Gaussian pulse-shaping taps for GFSK with bandwidth-time product `bt`
/// over `span_symbols` symbols at `samples_per_symbol`. Normalized to
/// unit sum (preserves frequency deviation).
std::vector<double> GaussianTaps(double bt, std::size_t samples_per_symbol,
                                 std::size_t span_symbols = 3);

}  // namespace freerider::dsp
