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

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoSeed = std::numeric_limits<std::size_t>::max();

// The float filter's range (docs/phy_fast_path.md, "Certified first
// scan"): the largest sample component must lie in [2^-450, 2^500], so
// the exact chain neither overflows nor loses the bound to double
// underflow, and a window gets a bound only if its prescaled energy is
// at least 2^-100, so float underflow stays negligible next to the
// allowance.
constexpr double kMinFilterComponent = 0x1p-450;
constexpr double kMaxFilterComponent = 0x1p500;
constexpr double kMinScaledEnergy = 0x1p-100;

// LTF reference split into SoA form once; `energy` uses the same
// sequential accumulation as the scalar reference detector, so the
// normalization constant is bit-identical to it. The float copies are
// the first scan's filter template.
struct LtfSoa {
  std::array<double, kFftSize> re{};
  std::array<double, kFftSize> im{};
  double energy = 0.0;
  std::array<float, kFftSize> fre{};
  std::array<float, kFftSize> fim{};
  float fenergy = 0.0f;
};

const LtfSoa& LtfPattern() {
  static const LtfSoa pattern = [] {
    LtfSoa p;
    const IqBuffer ltf = LongTrainingSymbol64();
    for (std::size_t k = 0; k < kFftSize; ++k) {
      p.re[k] = ltf[k].real();
      p.im[k] = ltf[k].imag();
      p.energy += std::norm(ltf[k]);
      p.fre[k] = static_cast<float>(p.re[k]);
      p.fim[k] = static_cast<float>(p.im[k]);
    }
    p.fenergy = static_cast<float>(p.energy);
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

/// Exact normalized correlations of positions [n, end) of x, with
/// end - n <= 8, into nc: the 8-position block for a full block, the
/// PositionNcorr chain per position otherwise (0 where the energy gates
/// it). x[n, end + 63) is split into a local SoA buffer, so no
/// capture-sized double array exists.
void RefineBlock(const Cplx* x, const double* we, std::size_t n,
                 std::size_t end, double* nc) {
  constexpr std::size_t kSpan = 8 + kFftSize - 1;
  alignas(32) double re[kSpan];
  alignas(32) double im[kSpan];
  const std::size_t len = end - n + kFftSize - 1;
  for (std::size_t i = 0; i < len; ++i) {
    re[i] = x[n + i].real();
    im[i] = x[n + i].imag();
  }
  if (end == n + 8) {
    const LtfSoa& ltf = LtfPattern();
    dsp::NormalizedCorrelationX8(re, im, ltf.re.data(), ltf.im.data(),
                                 kFftSize, we + n, ltf.energy, nc + n);
    return;
  }
  for (std::size_t j = n; j < end; ++j) {
    nc[j] = we[j] <= 0.0 ? 0.0 : PositionNcorr(re + (j - n), im + (j - n),
                                                we[j]);
  }
}

/// PositionNcorr of the window starting at x.
double ExactNcorr(const Cplx* x, double e) {
  double re[kFftSize];
  double im[kFftSize];
  for (std::size_t k = 0; k < kFftSize; ++k) {
    re[k] = x[k].real();
    im[k] = x[k].imag();
  }
  return PositionNcorr(re, im, e);
}

/// The 8 screen bytes at `keep` as one word: nonzero iff any is kept.
std::uint64_t KeptWord(const std::uint8_t* keep) {
  std::uint64_t word = 0;
  std::memcpy(&word, keep, 8);
  return word;
}

/// The refine stage both scans share. On entry ws.ncorr[n] bounds
/// position n's normalized correlation from above (+inf: no bound),
/// ws.win_energy holds the full scan's window energies, and
/// ws.scan_keep[n] is 1 when the full scan does not gate n and its
/// bound reaches the threshold, else 0 (also past the last position,
/// up to 8 * blocks + 64 bytes). The exact pair at `seed` (kNoSeed:
/// none), when the full scan considers that pair, raises the cutoff;
/// `passes(n, cutoff)` re-screens position n's bound against it.
///
/// The walk takes the full scan's 8-position blocks in ascending order.
/// A block still holding a kept position after its re-screen gets its
/// exact correlations (NormalizedCorrelationX8, pinned bit-equal to the
/// scalar chain), and the pairs of the block 64 positions back whose
/// two positions are both kept are offered, in order, to the full
/// scan's pair rule. Returns the full scan's Detection of x. Afterwards
/// ws.ncorr holds exact values in the refined blocks and, at every
/// other window the scan does not gate, a bound below the cutoff.
template <class Passes>
Detection RefineKept(std::span<const Cplx> x, double threshold,
                     std::size_t seed, const Passes& passes,
                     dsp::Workspace& ws) {
  const std::size_t positions = ws.ncorr.size();
  const Cplx* xs = x.data();
  double* nc = ws.ncorr.data();
  const double* we = ws.win_energy.data();
  std::uint8_t* keep = ws.scan_keep.data();

  double cutoff = threshold;
  // positions > 64, since both scans need a capture of 128 samples.
  if (seed < positions - 64 && we[seed] > 0.0 && we[seed + 64] > 0.0) {
    const double pair = std::min(ExactNcorr(xs + seed, we[seed]),
                                 ExactNcorr(xs + seed + 64, we[seed + 64]));
    if (pair > cutoff) cutoff = pair;
  }
  const bool raised = cutoff > threshold;

  const std::size_t blocks = (positions + 7) / 8;
  PairPeak peak(nc, we);
  for (std::size_t b = 0; b < blocks + 8; ++b) {
    if (b < blocks && KeptWord(keep + 8 * b) != 0) {
      const std::size_t n = 8 * b;
      const std::size_t end = std::min(n + 8, positions);
      if (raised) {
        for (std::size_t j = n; j < end; ++j) keep[j] &= passes(j, cutoff);
      }
      if (KeptWord(keep + n) != 0) RefineBlock(xs, we, n, end, nc);
    }
    if (b >= 8) {
      // Screen bytes are 0 or 1, so each kept pair sets the lowest bit
      // of its byte: visiting set bits low to high offers the pairs in
      // ascending order without a branch each.
      const std::size_t n = 8 * (b - 8);
      for (std::uint64_t pairs = KeptWord(keep + n) & KeptWord(keep + n + 64);
           pairs != 0; pairs &= pairs - 1) {
        peak.Offer(n + static_cast<std::size_t>(std::countr_zero(pairs)) / 8);
      }
    }
  }
  return peak.Result(x.size(), threshold);
}

using V2d = double __attribute__((vector_size(16)));
using V2l = std::int64_t __attribute__((vector_size(16)));
using V4f = float __attribute__((vector_size(16)));

/// The largest |re| or |im| of the capture (NaN samples are skipped; a
/// non-finite one shows in the energy pass's prefix instead). Four
/// independent maxima, so the loop is not one compare chain.
double MaxComponent(std::span<const Cplx> rx) {
  const double* d = reinterpret_cast<const double*>(rx.data());
  const std::size_t count = 2 * rx.size();
  const V2l magnitude = V2l{} + 0x7fff'ffff'ffff'ffffLL;
  V2d m[4] = {};
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    for (std::size_t j = 0; j < 4; ++j) {
      V2d v;
      std::memcpy(&v, d + i + 2 * j, sizeof v);
      const V2d a = reinterpret_cast<V2d>(reinterpret_cast<V2l>(v) & magnitude);
      m[j] = a > m[j] ? a : m[j];
    }
  }
  double best = 0.0;
  for (const V2d& v : m) {
    best = v[0] > best ? v[0] : best;
    best = v[1] > best ? v[1] : best;
  }
  for (; i < count; ++i) {
    const double a = std::abs(d[i]);
    best = a > best ? a : best;
  }
  return best;
}

/// nc[n] = est[n] + kFirstScanCorrAllowance and the threshold screen
/// keep[n] = (we[n] > 0) & (nc[n] >= threshold), four positions per
/// step. `we` must be finite, so `> 0` is the full scan's gate.
void BoundAndScreen(const float* est, const double* we, std::size_t positions,
                    double threshold, double* nc, std::uint8_t* keep) {
  const V2d allowance = V2d{} + kFirstScanCorrAllowance;
  const V2d cutoff = V2d{} + threshold;
  std::size_t n = 0;
  for (; n + 4 <= positions; n += 4) {
    V4f e;
    std::memcpy(&e, est + n, sizeof e);
    const V2d lo =
        __builtin_convertvector(__builtin_shufflevector(e, e, 0, 1), V2d) +
        allowance;
    const V2d hi =
        __builtin_convertvector(__builtin_shufflevector(e, e, 2, 3), V2d) +
        allowance;
    std::memcpy(nc + n, &lo, sizeof lo);
    std::memcpy(nc + n + 2, &hi, sizeof hi);
    V2d wlo;
    V2d whi;
    std::memcpy(&wlo, we + n, sizeof wlo);
    std::memcpy(&whi, we + n + 2, sizeof whi);
    const V2l klo = (wlo > 0.0) & (lo >= cutoff);
    const V2l khi = (whi > 0.0) & (hi >= cutoff);
    for (std::size_t j = 0; j < 2; ++j) {
      keep[n + j] = static_cast<std::uint8_t>(klo[j] & 1);
      keep[n + 2 + j] = static_cast<std::uint8_t>(khi[j] & 1);
    }
  }
  for (; n < positions; ++n) {
    nc[n] = static_cast<double>(est[n]) + kFirstScanCorrAllowance;
    keep[n] = static_cast<std::uint8_t>((we[n] > 0.0) & (nc[n] >= threshold));
  }
}

/// The kept pair with the largest finite bound, whose exact value raises
/// the first scan's cutoff (kNoSeed: none kept).
std::size_t BestBoundedPair(const double* nc, const std::uint8_t* keep,
                            std::size_t positions) {
  std::size_t seed = kNoSeed;
  double best = -kInf;
  for (std::size_t n = 0; n < positions; n += 8) {
    for (std::uint64_t pairs = KeptWord(keep + n) & KeptWord(keep + n + 64);
         pairs != 0; pairs &= pairs - 1) {
      const std::size_t j =
          n + static_cast<std::size_t>(std::countr_zero(pairs)) / 8;
      const double pair = std::min(nc[j], nc[j + 64]);
      if (pair > best && pair < kInf) {
        best = pair;
        seed = j;
      }
    }
  }
  return seed;
}

}  // namespace

Detection DetectPreambleFast(std::span<const Cplx> rx, double threshold,
                             dsp::Workspace& ws) {
  if (rx.size() < 2 * kFftSize) return {};
  const std::size_t positions = rx.size() - kFftSize + 1;
  // The filter reads 32-position blocks: samples up to padded + 62.
  const std::size_t padded = (positions + 31) / 32 * 32;
  ws.win_energy.resize(positions);
  ws.scan_keep.assign((positions + 7) / 8 * 8 + 64, 0);
  ws.scan_fre.resize(padded + kFftSize - 1);
  ws.scan_fim.resize(padded + kFftSize - 1);
  ws.scan_fest.resize(padded);
  const Cplx* x = rx.data();
  double* we = ws.win_energy.data();
  std::uint8_t* keep = ws.scan_keep.data();
  float* fre = ws.scan_fre.data();
  float* fim = ws.scan_fim.data();
  float* fest = ws.scan_fest.data();

  // The prescale 2^s puts the largest sample component m in [1, 2), so
  // no float sum overflows. Outside the filter's range of m the pass
  // below still runs, with a scale of 0 (so no double is converted to a
  // float it does not fit), and its floats go unused.
  const double m = MaxComponent(rx);
  const bool in_range = m >= kMinFilterComponent && m <= kMaxFilterComponent;
  const int s = in_range ? -std::ilogb(m) : 0;
  const double scale = in_range ? std::ldexp(1.0, s) : 0.0;
  const double scale2 = std::ldexp(1.0, 2 * s);

  // 1. One pass over the capture writes the prescaled float samples and
  // each sample's |x|^2 (re * re + im * im, the recurrence's own terms;
  // ncorr holds them until step 3).
  ws.ncorr.resize(rx.size());
  double* norm = ws.ncorr.data();
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    fre[i] = static_cast<float>(re * scale);
    fim[i] = static_cast<float>(im * scale);
    norm[i] = re * re + im * im;
  }

  // 2. The full scan's window-energy recurrence (SlidingWindowEnergy64's
  // doubles) into win_energy, and for the filter each window's
  // prescaled float energy: 0 (no bound) when the recurrence's
  // cancellation could hide more than a sliver of it
  // (E < kRescanEnergyAllowance * S, S the energy of x[0, n + 64)) or
  // when it is too small for float (below kMinScaledEnergy).
  double prefix = 0.0;
  dsp::ForEachWindowEnergy64(
      positions, [norm](std::size_t i) { return norm[i]; },
      [&](std::size_t n, double e, double added) {
        prefix += added;
        we[n] = e;
        const double scaled = e * scale2;
        const bool bounded = (e >= kRescanEnergyAllowance * prefix) &
                             (scaled >= kMinScaledEnergy);
        fest[n] = bounded ? static_cast<float>(scaled) : 0.0f;
      });

  ws.ncorr.resize(positions);
  double* nc = ws.ncorr.data();

  // 3. The filter: estimates, then bounds and the threshold screen. A
  // non-finite sample makes the prefix NaN or +inf. Such a capture, or
  // one outside the filter's range, keeps every window the full scan
  // does not gate and is refined exactly throughout.
  std::size_t seed = kNoSeed;
  if (in_range && prefix <= std::numeric_limits<double>::max()) {
    std::fill(fre + rx.size(), fre + padded + kFftSize - 1, 0.0f);
    std::fill(fim + rx.size(), fim + padded + kFftSize - 1, 0.0f);
    std::fill(fest + positions, fest + padded, 0.0f);
    const LtfSoa& ltf = LtfPattern();
    for (std::size_t n = 0; n < padded; n += 32) {
      dsp::NcorrEstimateX32(fre + n, fim + n, ltf.fre.data(), ltf.fim.data(),
                            kFftSize, fest + n, ltf.fenergy, fest + n);
    }
    BoundAndScreen(fest, we, positions, threshold, nc, keep);
    seed = BestBoundedPair(nc, keep, positions);
  } else {
    for (std::size_t n = 0; n < positions; ++n) {
      nc[n] = kInf;
      keep[n] = static_cast<std::uint8_t>(!(we[n] <= 0.0));
    }
  }
  return RefineKept(
      rx, threshold, seed,
      [we, nc](std::size_t n, double cutoff) {
        return static_cast<std::uint8_t>(!(we[n] <= 0.0) & (nc[n] >= cutoff));
      },
      ws);
}

Detection DetectPreambleAfterMix(std::span<const Cplx> mixed, double cfo_hz,
                                 const Detection& first, double threshold,
                                 dsp::Workspace& ws) {
  if (mixed.size() < 2 * kFftSize) return {};
  const std::size_t positions = mixed.size() - kFftSize + 1;
  if (ws.ncorr.size() != positions || ws.win_energy.size() != positions) {
    return DetectPreambleFast(mixed, threshold, ws);  // no first scan to use
  }
  // Energies outside [kTiny, kHuge] get no bound (the position is kept):
  // inside it nothing the bound or the exact chain computes overflows,
  // and underflow errors vanish next to the allowances.
  constexpr double kTiny = 1e-150;
  constexpr double kHuge = 1e150;
  const Cplx* x = mixed.data();
  double* nc = ws.ncorr.data();
  double* we = ws.win_energy.data();

  // One pass over the mixed capture computes the full scan's window
  // energies E2 into win_energy (its recurrence, on the same doubles)
  // and, from the first scan's ncorr nc1 (exact or an upper bound) and
  // energies E1, a bound into ncorr:
  //   nc[n] = (nc1 + delta)^2 (E1 + kE * S),
  // S the energy of samples [0, n + 64) and delta the rotation term, so
  // that the mixed window's normalized correlation c2 satisfies
  // c2^2 E2 <= nc[n] (1 + kRel). A window the first scan gated, or one
  // with a non-finite sample or an energy outside [kTiny, kHuge], gets
  // +inf.
  //
  // Position n passes a cutoff c when the full scan does not gate it
  // and nc[n] >= c^2 E2 / (1 + kRel). The pass screens every position
  // against the threshold.
  const auto squared = [](double c) {
    return c > 0.0 ? c * c / (1.0 + kRescanRelAllowance) : -kInf;
  };
  // Bitwise, not short-circuit: the verdicts are data-dependent, and on
  // dense survivors a branch per position would mispredict half the time.
  const auto passes = [](double bound, double e2, double cutoff2) {
    return static_cast<std::uint8_t>(!((e2 <= 0.0) | (bound < cutoff2 * e2)));
  };
  ws.scan_keep.assign((positions + 7) / 8 * 8 + 64, 0);
  std::uint8_t* keep = ws.scan_keep.data();
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
        keep[n] = passes(nc[n], e2, threshold2);
      });

  // The exact pair at the first scan's pick raises the cutoff.
  const std::size_t seed = first.found && first.second_ltf_start >= 64
                               ? first.second_ltf_start - 64
                               : kNoSeed;
  return RefineKept(
      mixed, threshold, seed,
      [&](std::size_t n, double cutoff) {
        return passes(nc[n], we[n], squared(cutoff));
      },
      ws);
}

}  // namespace freerider::phy80211
