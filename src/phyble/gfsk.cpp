#include "phyble/gfsk.h"

#include <cmath>

#include "dsp/fir.h"

namespace freerider::phyble {
namespace {

const dsp::FirFilter& GaussianShaper() {
  static const dsp::FirFilter filter(
      dsp::GaussianTaps(kGaussianBt, kSamplesPerBit, 3));
  return filter;
}

const dsp::FirFilter& SelectFilter() {
  // Cutoff at ~600 kHz on 8 MS/s: passes the ±250 kHz codewords plus
  // modulation sidebands, rejects the tag's ±750 kHz image (Eq. 10).
  static const dsp::FirFilter filter(dsp::LowPassTaps(600e3 / kSampleRateHz, 65));
  return filter;
}

}  // namespace

IqBuffer ModulateBits(std::span<const Bit> bits) {
  IqBuffer out;
  ModulateBitsInto(bits, out);
  return out;
}

void ModulateBitsInto(std::span<const Bit> bits, IqBuffer& out) {
  thread_local IqBuffer nrz;
  thread_local IqBuffer shaped;
  // NRZ at sample rate.
  nrz.resize(bits.size() * kSamplesPerBit);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const double level = bits[i] ? 1.0 : -1.0;
    for (std::size_t s = 0; s < kSamplesPerBit; ++s) {
      nrz[i * kSamplesPerBit + s] = {level, 0.0};
    }
  }
  GaussianShaper().FilterInto(nrz, shaped);

  // Integrate frequency into phase.
  out.resize(shaped.size());
  double phase = 0.0;
  const double k = kTwoPi * kFreqDeviationHz / kSampleRateHz;
  for (std::size_t n = 0; n < shaped.size(); ++n) {
    phase += k * shaped[n].real();
    out[n] = {std::cos(phase), std::sin(phase)};
  }
}

IqBuffer ChannelFilter(std::span<const Cplx> rx) {
  return SelectFilter().Filter(rx);
}

void ChannelFilterInto(std::span<const Cplx> rx, IqBuffer& out) {
  SelectFilter().FilterInto(rx, out);
}

std::vector<double> Discriminate(std::span<const Cplx> rx) {
  std::vector<double> freq;
  DiscriminateInto(rx, freq);
  return freq;
}

void DiscriminateInto(std::span<const Cplx> rx, std::vector<double>& freq) {
  freq.assign(rx.size(), 0.0);
  for (std::size_t n = 1; n < rx.size(); ++n) {
    const Cplx d = rx[n] * std::conj(rx[n - 1]);
    freq[n] = std::arg(d) * kSampleRateHz / kTwoPi;
  }
}

double BitFrequency(std::span<const double> inst_freq, std::size_t bit_start,
                    std::size_t bit_index) {
  // Average over the middle half of the bit period to dodge transitions.
  const std::size_t start =
      bit_start + bit_index * kSamplesPerBit + kSamplesPerBit / 4;
  const std::size_t len = kSamplesPerBit / 2;
  if (start + len > inst_freq.size()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < len; ++i) acc += inst_freq[start + i];
  return acc / static_cast<double>(len);
}

}  // namespace freerider::phyble
