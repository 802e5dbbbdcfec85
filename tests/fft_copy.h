// Out-of-place FFT for tests that compare spectra side by side.
#pragma once

#include <span>

#include "common/types.h"
#include "dsp/fft.h"

namespace freerider::dsp {

inline IqBuffer FftCopy(std::span<const Cplx> data) {
  IqBuffer out(data.begin(), data.end());
  Fft(out);
  return out;
}

}  // namespace freerider::dsp
