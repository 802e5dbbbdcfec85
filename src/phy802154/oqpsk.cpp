#include "phy802154/oqpsk.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace freerider::phy802154 {
namespace {

// Half-sine pulse spanning two chip periods (2 * kSamplesPerChip
// samples).
const std::vector<double>& HalfSinePulse() {
  static const std::vector<double> pulse = [] {
    std::vector<double> p(2 * kSamplesPerChip);
    for (std::size_t n = 0; n < p.size(); ++n) {
      p[n] = std::sin(kPi * static_cast<double>(n) /
                      static_cast<double>(p.size()));
    }
    return p;
  }();
  return pulse;
}

inline double Level(Bit chip) { return chip ? 1.0 : -1.0; }

}  // namespace

std::size_t WaveformLength(std::size_t num_chips) {
  // Last chip's pulse extends one extra chip period past its start.
  return (num_chips + 1) * kSamplesPerChip;
}

IqBuffer ModulateChips(std::span<const Bit> chips) {
  IqBuffer out;
  ModulateChipsInto(chips, out);
  return out;
}

void ModulateChipsInto(std::span<const Bit> chips, IqBuffer& out) {
  if (chips.size() % 2 != 0) {
    throw std::invalid_argument("ModulateChips: chip count must be even");
  }
  const auto& pulse = HalfSinePulse();
  out.assign(WaveformLength(chips.size()), Cplx{0.0, 0.0});
  for (std::size_t k = 0; k < chips.size(); ++k) {
    // Chip k's pulse starts at k * Tc; even -> I, odd -> Q.
    const std::size_t start = k * kSamplesPerChip;
    const double level = Level(chips[k]);
    for (std::size_t n = 0; n < pulse.size(); ++n) {
      if (k % 2 == 0) {
        out[start + n] += Cplx{level * pulse[n], 0.0};
      } else {
        out[start + n] += Cplx{0.0, level * pulse[n]};
      }
    }
  }
  // Mean power of sin^2 on each rail is 0.5; both rails active at any
  // instant gives ~1.0 total. Normalize exactly: |I|^2+|Q|^2 averages
  // to 1 when each rail is a continuous stream of half-sines.
}

void DemodulateChipsInto(std::span<const Cplx> rx, std::size_t start,
                         std::size_t num_chips, BitVector& chips) {
  const auto& pulse = HalfSinePulse();
  chips.clear();
  for (std::size_t k = 0; k < num_chips; ++k) {
    const std::size_t pulse_start = start + k * kSamplesPerChip;
    if (pulse_start + pulse.size() > rx.size()) break;
    double acc = 0.0;
    for (std::size_t n = 0; n < pulse.size(); ++n) {
      const Cplx& sample = rx[pulse_start + n];
      acc += pulse[n] * ((k % 2 == 0) ? sample.real() : sample.imag());
    }
    chips.push_back(static_cast<Bit>(acc >= 0.0));
  }
}

}  // namespace freerider::phy802154
