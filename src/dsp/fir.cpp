#include "dsp/fir.h"

#include <cmath>
#include <stdexcept>

namespace freerider::dsp {

FirFilter::FirFilter(std::vector<double> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
}

IqBuffer FirFilter::Filter(std::span<const Cplx> input) const {
  IqBuffer out;
  FilterInto(input, out);
  return out;
}

void FirFilter::FilterInto(std::span<const Cplx> input, IqBuffer& out) const {
  out.resize(input.size());
  // Center the group delay so output stays time-aligned with input.
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps_.size() / 2);
  for (std::size_t n = 0; n < input.size(); ++n) {
    Cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < taps_.size(); ++k) {
      const std::ptrdiff_t idx =
          static_cast<std::ptrdiff_t>(n) + delay - static_cast<std::ptrdiff_t>(k);
      if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(input.size())) {
        acc += taps_[k] * input[static_cast<std::size_t>(idx)];
      }
    }
    out[n] = acc;
  }
}

std::vector<double> LowPassTaps(double cutoff_norm, std::size_t num_taps) {
  if (cutoff_norm <= 0.0 || cutoff_norm >= 0.5) {
    throw std::invalid_argument("LowPassTaps: cutoff must be in (0, 0.5)");
  }
  if (num_taps == 0) throw std::invalid_argument("LowPassTaps: zero taps");
  std::vector<double> taps(num_taps);
  const double mid = static_cast<double>(num_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc = (std::abs(t) < 1e-12)
                            ? 2.0 * cutoff_norm
                            : std::sin(kTwoPi * cutoff_norm * t) / (kPi * t);
    const double window =
        0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) /
                               static_cast<double>(num_taps - 1));
    taps[i] = sinc * window;
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;
  return taps;
}

std::vector<double> GaussianTaps(double bt, std::size_t samples_per_symbol,
                                 std::size_t span_symbols) {
  if (bt <= 0.0) throw std::invalid_argument("GaussianTaps: bt must be > 0");
  const std::size_t n = samples_per_symbol * span_symbols | 1u;  // odd length
  std::vector<double> taps(n);
  const double mid = static_cast<double>(n - 1) / 2.0;
  // Standard GFSK Gaussian: h(t) ∝ exp(-(2π²B²t²)/ln 2), t in symbols.
  const double alpha = 2.0 * kPi * kPi * bt * bt / std::log(2.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t =
        (static_cast<double>(i) - mid) / static_cast<double>(samples_per_symbol);
    taps[i] = std::exp(-alpha * t * t);
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;
  return taps;
}

}  // namespace freerider::dsp
