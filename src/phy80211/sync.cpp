#include "phy80211/sync.h"

#include <cmath>
#include <complex>
#include <cstdlib>
#include <vector>

#include "dsp/kernels.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {
namespace {

// LTF reference split into SoA form once; `energy` uses the same
// sequential accumulation as the legacy detector so the normalization
// constant is bit-identical in both paths.
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

/// Shared peak/validation stage. Both implementations feed it their
/// ncorr/win_energy arrays; the win_energy doubles are bit-identical
/// between the two paths (same recurrence), so the degenerate-window
/// gating decisions below are identical by construction.
Detection PickPairPeak(const double* ncorr, const double* win_energy,
                       std::size_t positions, std::size_t rx_size,
                       double threshold) {
  // The LTF gives two adjacent full-symbol peaks 64 samples apart.
  // Find the best position with a confirming peak at +64. Windows with
  // non-positive energy have no defined normalized correlation — they
  // are excluded rather than scanned as ncorr == 0 placeholders.
  double best = 0.0;
  std::size_t best_n = 0;
  bool have_peak = false;
  for (std::size_t n = 0; n + 64 < positions; ++n) {
    if (win_energy[n] <= 0.0 || win_energy[n + 64] <= 0.0) continue;
    const double pair = std::min(ncorr[n], ncorr[n + 64]);
    if (pair > best) {
      best = pair;
      best_n = n;
      have_peak = true;
    }
  }
  // `have_peak` also rejects the all-zero/degenerate buffer at
  // threshold <= 0: a correlation of exactly zero is never a packet.
  if (!have_peak || best < threshold) return {};
  // A frame whose SIGNAL symbol cannot fit inside the capture is
  // undecodable — reject instead of handing downstream a start index
  // past the buffer (truncated-capture bug class).
  if (best_n + 2 * kFftSize + kSymbolLen > rx_size) return {};
  return {true, best_n + 64};
}

}  // namespace

bool UseScalarPhy() {
  static const bool scalar = [] {
    const char* env = std::getenv("FREERIDER_PHY_SCALAR");
    return env != nullptr && env[0] == '1' && env[1] == '\0';
  }();
  return scalar;
}

Detection DetectPreambleScalar(std::span<const Cplx> rx, double threshold) {
  static const IqBuffer ltf = LongTrainingSymbol64();
  static const double ltf_energy = [&] {
    double e = 0.0;
    for (const Cplx& x : ltf) e += std::norm(x);
    return e;
  }();

  if (rx.size() < ltf.size() + 64) return {};

  // Sliding window energy for normalization.
  const std::size_t positions = rx.size() - ltf.size() + 1;
  std::vector<double> win_energy(positions);
  double acc = 0.0;
  for (std::size_t n = 0; n < ltf.size(); ++n) acc += std::norm(rx[n]);
  win_energy[0] = acc;
  for (std::size_t n = 1; n < positions; ++n) {
    acc += std::norm(rx[n + ltf.size() - 1]) - std::norm(rx[n - 1]);
    win_energy[n] = acc;
  }

  std::vector<double> ncorr(positions, 0.0);
  for (std::size_t n = 0; n < positions; ++n) {
    if (win_energy[n] <= 0.0) continue;
    Cplx c{0.0, 0.0};
    for (std::size_t k = 0; k < ltf.size(); ++k) {
      c += rx[n + k] * std::conj(ltf[k]);
    }
    ncorr[n] = std::abs(c) / std::sqrt(win_energy[n] * ltf_energy);
  }

  return PickPairPeak(ncorr.data(), win_energy.data(), positions, rx.size(),
                      threshold);
}

Detection DetectPreambleFast(std::span<const Cplx> rx, double threshold,
                             dsp::Workspace& ws) {
  const LtfSoa& ltf = LtfPattern();
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
    dsp::NormalizedCorrelationX8(re + n, im + n, ltf.re.data(), ltf.im.data(),
                                 kFftSize, we + n, ltf.energy, nc + n);
  }
  for (; n < positions; ++n) {
    const double e = we[n];
    if (e <= 0.0) continue;
    const double power = dsp::CorrelationPower(re + n, im + n, ltf.re.data(),
                                               ltf.im.data(), kFftSize);
    nc[n] = std::sqrt(power) / std::sqrt(e * ltf.energy);
  }

  return PickPairPeak(nc, we, positions, rx.size(), threshold);
}

Detection DetectPreamble(std::span<const Cplx> rx, double threshold) {
  if (UseScalarPhy()) return DetectPreambleScalar(rx, threshold);
  return DetectPreambleFast(rx, threshold, dsp::ThreadLocalWorkspace());
}

}  // namespace freerider::phy80211
