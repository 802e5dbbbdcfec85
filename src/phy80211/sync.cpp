#include "phy80211/sync.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>

#include "dsp/kernels.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {
namespace {

// LTF reference split into SoA form once; `energy` uses the same
// sequential accumulation as the scalar reference detector, so the
// normalization constant is bit-identical to it.
struct LtfSoa {
  std::array<double, kFftSize> re{};
  std::array<double, kFftSize> im{};
  double energy = 0.0;
};

const LtfSoa& LtfPattern() {
  static const LtfSoa pattern = [] {
    LtfSoa p;
    const IqBuffer ltf = LongTrainingSymbol64();
    for (std::size_t k = 0; k < kFftSize; ++k) {
      p.re[k] = ltf[k].real();
      p.im[k] = ltf[k].imag();
      p.energy += std::norm(ltf[k]);
    }
    return p;
  }();
  return pattern;
}

/// The exact normalized correlation of the window at (re, im) with
/// energy `e` > 0: the remainder's chain, which every lane of
/// dsp::NormalizedCorrelationX8 matches bit for bit.
double PositionNcorr(const double* re, const double* im, double e) {
  const LtfSoa& ltf = LtfPattern();
  const double power = dsp::CorrelationPower(re, im, ltf.re.data(),
                                             ltf.im.data(), kFftSize);
  return std::sqrt(power) / std::sqrt(e * ltf.energy);
}

/// Peak/validation stage over the scan's ncorr/win_energy arrays, fed
/// the candidate pairs n (positions n and n + 64) in ascending order.
/// The win_energy doubles come from the scalar reference's add/subtract
/// recurrence, so the degenerate-window gating decisions below match
/// it by construction.
class PairPeak {
 public:
  PairPeak(const double* ncorr, const double* win_energy)
      : ncorr_(ncorr), win_energy_(win_energy) {}

  // The LTF gives two adjacent full-symbol peaks 64 samples apart.
  // Find the best position with a confirming peak at +64. Windows with
  // non-positive energy have no defined normalized correlation — they
  // are excluded rather than scanned as ncorr == 0 placeholders.
  void Offer(std::size_t n) {
    if (win_energy_[n] <= 0.0 || win_energy_[n + 64] <= 0.0) return;
    const double pair = std::min(ncorr_[n], ncorr_[n + 64]);
    if (pair > best_) {
      best_ = pair;
      best_n_ = n;
      have_peak_ = true;
    }
  }

  Detection Result(std::size_t rx_size, double threshold) const {
    // `have_peak_` also rejects the all-zero/degenerate buffer at
    // threshold <= 0: a correlation of exactly zero is never a packet.
    if (!have_peak_ || best_ < threshold) return {};
    // A frame whose SIGNAL symbol cannot fit inside the capture is
    // undecodable — reject instead of handing downstream a start index
    // past the buffer (truncated-capture bug class).
    if (best_n_ + 2 * kFftSize + kSymbolLen > rx_size) return {};
    return {true, best_n_ + 64};
  }

 private:
  const double* ncorr_;
  const double* win_energy_;
  double best_ = 0.0;
  std::size_t best_n_ = 0;
  bool have_peak_ = false;
};

/// Normalized correlations of positions [n, n + 8) into nc, each the
/// PositionNcorr chain (0 where the energy gates it). Reads x[n, n + 71).
void CorrelateBlock(const double* re, const double* im, const double* we,
                    std::size_t n, double* nc) {
  const LtfSoa& ltf = LtfPattern();
  dsp::NormalizedCorrelationX8(re + n, im + n, ltf.re.data(), ltf.im.data(),
                               kFftSize, we + n, ltf.energy, nc + n);
}

}  // namespace

Detection DetectPreambleFast(std::span<const Cplx> rx, double threshold,
                             dsp::Workspace& ws) {
  if (rx.size() < 2 * kFftSize) return {};
  const std::size_t positions = rx.size() - kFftSize + 1;

  dsp::SplitComplex(rx, ws.scan_re, ws.scan_im);
  dsp::SlidingWindowEnergy64(ws.scan_re.data(), ws.scan_im.data(), positions,
                             ws.win_energy);

  ws.ncorr.assign(positions, 0.0);
  const double* re = ws.scan_re.data();
  const double* im = ws.scan_im.data();
  const double* we = ws.win_energy.data();
  double* nc = ws.ncorr.data();
  // Energy gate: a window with no energy has no normalized correlation
  // to compute — the only gate that provably cannot change the
  // detection decision (see DESIGN.md §13: Cauchy-Schwarz caps ncorr at
  // 1, so any *positive* window energy still admits a
  // threshold-clearing peak). The scan runs in blocks of 8 positions. A
  // block is skipped only when all eight of its windows are gated; a
  // partially gated block computes all eight correlations and writes 0
  // for the gated ones, which keeps every written ncorr value
  // independent of its neighbors' energies. The 1-position remainder
  // runs the same chain and normalization per position.
  std::size_t n = 0;
  for (; n + 8 <= positions; n += 8) {
    bool any_energy = false;
    for (std::size_t j = 0; j < 8; ++j) any_energy |= !(we[n + j] <= 0.0);
    if (!any_energy) continue;
    CorrelateBlock(re, im, we, n, nc);
  }
  for (; n < positions; ++n) {
    if (we[n] <= 0.0) continue;
    nc[n] = PositionNcorr(re + n, im + n, we[n]);
  }

  PairPeak peak(nc, we);
  for (n = 0; n + 64 < positions; ++n) peak.Offer(n);
  return peak.Result(rx.size(), threshold);
}

Detection DetectPreambleAfterMix(std::span<const Cplx> mixed, double cfo_hz,
                                 const Detection& first, double threshold,
                                 dsp::Workspace& ws) {
  if (mixed.size() < 2 * kFftSize) return {};
  const std::size_t positions = mixed.size() - kFftSize + 1;
  if (ws.ncorr.size() != positions || ws.win_energy.size() != positions) {
    return DetectPreambleFast(mixed, threshold, ws);  // no first scan to use
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Energies outside [kTiny, kHuge] get no bound (the position is kept):
  // inside it nothing the bound or the exact chain computes overflows,
  // and underflow errors vanish next to the allowances.
  constexpr double kTiny = 1e-150;
  constexpr double kHuge = 1e150;
  const Cplx* x = mixed.data();
  double* nc = ws.ncorr.data();
  double* we = ws.win_energy.data();

  // 1. One pass over the mixed capture computes the full scan's window
  // energies E2 into win_energy (its recurrence, on the same doubles)
  // and, from the first scan's ncorr nc1 and energies E1, a bound into
  // ncorr:
  //   nc[n] = (nc1 + delta)^2 (E1 + kE * S),
  // S the energy of samples [0, n + 64) and delta the rotation term, so
  // that the mixed window's normalized correlation c2 satisfies
  // c2^2 E2 <= nc[n] (1 + kRel). A window the first scan gated, or one
  // with a non-finite sample or an energy outside [kTiny, kHuge], gets
  // +inf.
  //
  // Position n passes a cutoff c when the full scan does not gate it
  // and nc[n] >= c^2 E2 / (1 + kRel). Pair n is kept when n and n + 64
  // both pass; the zero bytes past the end stand for a missing n + 64.
  // The pass screens every position against the threshold.
  const auto squared = [](double c) {
    return c > 0.0 ? c * c / (1.0 + kRescanRelAllowance) : -kInf;
  };
  // Bitwise, not short-circuit: the verdicts are data-dependent, and on
  // dense survivors a branch per position would mispredict half the time.
  const auto passes = [](double bound, double e2, double cutoff2) {
    return static_cast<std::uint8_t>(!((e2 <= 0.0) | (bound < cutoff2 * e2)));
  };
  const std::size_t blocks = (positions + 7) / 8;
  ws.scan_keep.assign(8 * blocks + 64, 0);
  std::uint8_t* pass = ws.scan_keep.data();
  const double omega = kTwoPi * std::abs(cfo_hz) / kSampleRateHz;
  const double rotation = std::min(31.5 * omega, 2.0) + kRescanCorrAllowance;
  const double threshold2 = squared(threshold);
  double prefix = 0.0;
  dsp::ForEachWindowEnergy64(
      positions,
      [x](std::size_t i) {
        return x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
      },
      [&](std::size_t n, double e2, double added) {
        prefix += added;
        const double e1 = we[n];
        const double lift = nc[n] + rotation;
        const bool bounded = (e1 >= kTiny) & (prefix <= kHuge) &
                             (e2 >= kTiny) & (e2 <= kHuge);
        nc[n] = bounded ? lift * lift * (e1 + kRescanEnergyAllowance * prefix)
                        : kInf;
        we[n] = e2;
        pass[n] = passes(nc[n], e2, threshold2);
      });

  // The exact chain reads SoA samples: split [from, to) of the capture
  // into scan_re/scan_im at the same offsets.
  ws.scan_re.resize(mixed.size());
  ws.scan_im.resize(mixed.size());
  double* re = ws.scan_re.data();
  double* im = ws.scan_im.data();
  const auto split = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      re[i] = x[i].real();
      im[i] = x[i].imag();
    }
  };

  // 2. A lower bound on the best pair, which raises the cutoff: the
  // exact pair at the first scan's pick, when the full scan considers
  // that pair.
  double cutoff = threshold;
  if (first.found && first.second_ltf_start >= 64 &&
      first.second_ltf_start < positions) {
    const std::size_t n = first.second_ltf_start - 64;
    if (we[n] > 0.0 && we[n + 64] > 0.0) {
      split(n, n + 128);
      const double pair = std::min(PositionNcorr(re + n, im + n, we[n]),
                                   PositionNcorr(re + n + 64, im + n + 64,
                                                 we[n + 64]));
      if (pair > cutoff) cutoff = pair;
    }
  }
  const double cutoff2 = squared(cutoff);

  // 3. Refine in the full scan's 8-position blocks, ascending. Each
  // block is re-screened against the raised cutoff eight blocks ahead
  // of its refine step, while its bounds are still in ncorr. Block b
  // then gets its exact correlations if it holds either position of a
  // kept pair (so dense survivors at large CFO cost what the full scan
  // costs), and the pairs of block b - 8, whose partners at +64 lie in
  // block b, are offered to the pair rule in order. Samples are split
  // once, up to the furthest block read.
  const auto rescreen = [&](std::size_t b) {
    if (cutoff2 <= threshold2 || b >= blocks) return;
    for (std::size_t j = 8 * b; j < std::min(8 * b + 8, positions); ++j) {
      pass[j] &= passes(nc[j], we[j], cutoff2);
    }
  };
  const auto kept_in = [pass](std::size_t n) {  // nonzero: a pair n..n+7 kept
    std::uint64_t here = 0;
    std::uint64_t ahead = 0;
    std::memcpy(&here, pass + n, 8);
    std::memcpy(&ahead, pass + n + 64, 8);
    return here & ahead;
  };
  for (std::size_t b = 0; b < 8; ++b) rescreen(b);
  std::size_t split_to = 0;
  PairPeak peak(nc, we);
  for (std::size_t b = 0; b < blocks + 8; ++b) {
    rescreen(b + 8);
    if (b < blocks) {
      const std::size_t n = 8 * b;
      const std::size_t end = std::min(n + 8, positions);
      if ((kept_in(n) | (n >= 64 ? kept_in(n - 64) : 0)) != 0) {
        split(std::max(n, split_to), end + kFftSize - 1);
        split_to = end + kFftSize - 1;
        if (end == n + 8) {
          CorrelateBlock(re, im, we, n, nc);
        } else {
          for (std::size_t j = n; j < end; ++j) {
            nc[j] = we[j] <= 0.0 ? 0.0 : PositionNcorr(re + j, im + j, we[j]);
          }
        }
      }
    }
    if (b >= 8 && kept_in(8 * (b - 8)) != 0) {
      // Bit j of `lanes` marks pair n + j; visiting set bits low to high
      // offers the kept pairs in ascending order without a branch each.
      const std::size_t n = 8 * (b - 8);
      unsigned lanes = 0;
      for (unsigned j = 0; j < 8; ++j) {
        lanes |= static_cast<unsigned>(pass[n + j] & pass[n + j + 64]) << j;
      }
      for (; lanes != 0; lanes &= lanes - 1) {
        peak.Offer(n + static_cast<std::size_t>(std::countr_zero(lanes)));
      }
    }
  }
  return peak.Result(mixed.size(), threshold);
}

}  // namespace freerider::phy80211
