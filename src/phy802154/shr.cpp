#include "phy802154/shr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "dsp/fft.h"
#include "phy802154/chips.h"
#include "phy802154/oqpsk.h"

namespace freerider::phy802154 {
namespace {

// Unit roundoff of binary64 and Higham's gamma_m = m u / (1 - m u).
constexpr double kUnit = 0x1p-53;
constexpr double Gamma(double m) { return m * kUnit / (1.0 - m * kUnit); }

// Absolute slack for gradual underflow, which the relative error
// analysis below excludes: it dominates every underflow term of the
// filter (FFT and chain roundings <= 2^-1036 in total, a magnitude whose
// squares underflow <= 2^-536, block energy lost to underflow <= 2^-531
// in norm) by more than 2^30.
constexpr double kUnderflowSlack = 0x1p-500;

// Directed slack on the normalized bounds: covers the roundings of the
// bound's own sum, division and square roots, and of the exact scan's
// hypot, all a few ulps (~2^-50) apart.
constexpr double kRoundUp = 1.0 + 0x1p-40;
constexpr double kRoundDown = 1.0 - 0x1p-40;

struct FilterTables {
  /// conj(FFT(ref zero-padded to kShrBlock)), split, in bit-reversed
  /// order: entry i is bin BitReversal(kShrBlock)[i].
  std::vector<double> spectrum_re;
  std::vector<double> spectrum_im;
  double ref_energy = 0.0;     ///< R, summed in the exact scan's order.
  /// K in A = K * ||block||_2 + kUnderflowSlack (docs/phy_fast_path.md).
  double allowance_per_norm = 0.0;
};

const FilterTables& Tables() {
  static const FilterTables tables = [] {
    FilterTables t;
    const IqBuffer& ref = ShrReference();
    for (const Cplx& x : ref) t.ref_energy += std::norm(x);
    IqBuffer spectrum(kShrBlock, Cplx{0.0, 0.0});
    std::copy(ref.begin(), ref.end(), spectrum.begin());
    dsp::Fft(spectrum);
    double r_max = 0.0;  // ||computed reference spectrum||_inf
    for (Cplx& x : spectrum) {
      x = std::conj(x);
      r_max = std::max(r_max, std::abs(x));
    }
    for (const std::uint32_t k : dsp::BitReversal(kShrBlock)) {
      t.spectrum_re.push_back(spectrum[k].real());
      t.spectrum_im.push_back(spectrum[k].imag());
    }
    // Radix-2 FFT, relative 2-norm error (Higham, Accuracy and
    // Stability, Thm 24.2): alpha = t eta / (1 - t eta), t = log2 N,
    // eta = mu + gamma_4 (sqrt2 + mu), mu = twiddle error (<= ~9.3u
    // derived; 32u allowed).
    const double log2n = static_cast<double>(std::bit_width(kShrBlock) - 1);
    const double mu = 32.0 * kUnit;
    const double eta = mu + Gamma(4) * (std::sqrt(2.0) + mu);
    const double alpha = log2n * eta / (1.0 - log2n * eta);
    const double sqrt_n = std::sqrt(static_cast<double>(kShrBlock));
    const double ref_norm = std::sqrt(t.ref_energy);
    // Per unit of ||block||_2: reference spectrum error, then the
    // spectral product, then the inverse transform.
    const double ref_spectrum_err = alpha * sqrt_n * ref_norm;
    const double product_err =
        alpha * r_max + ref_spectrum_err +
        std::sqrt(2.0) * Gamma(2) * (1.0 + alpha) * r_max;
    const double fft_err =
        product_err + alpha * (r_max + ref_spectrum_err + product_err);
    // The exact scan's own sequential chain of kShrRefSamples products.
    const double chain_err =
        2.0 * Gamma(static_cast<double>(kShrRefSamples) + 1.0) * ref_norm;
    // Factor 2: second-order terms and the block energy's rounding.
    t.allowance_per_norm = 2.0 * (fft_err + chain_err);
    return t;
  }();
  return tables;
}

// A position the filter could not rule out, with the exact scan's
// window energy there.
struct Candidate {
  std::size_t position;
  double window_energy;
  double upper;
};

struct ShrWorkspace {
  ShrBlock block;
  std::vector<Candidate> candidates;
};

ShrWorkspace& ThreadLocalShrWorkspace() {
  thread_local ShrWorkspace ws;
  return ws;
}

}  // namespace

const IqBuffer& ShrReference() {
  static const IqBuffer ref = [] {
    const std::vector<std::uint8_t> symbols = {0, 0, 0x7, 0xA};
    return ModulateChips(SpreadSymbols(symbols));
  }();
  return ref;
}

double EstimateShrBlock(std::span<const Cplx> rx, std::size_t first,
                        ShrBlock& block) {
  const FilterTables& t = Tables();
  const std::span<const Cplx> src =
      first < rx.size()
          ? rx.subspan(first, std::min(kShrBlock, rx.size() - first))
          : std::span<const Cplx>{};
  block.re.resize(kShrBlock);
  block.im.resize(kShrBlock);
  block.spectrum_re.resize(kShrBlock);
  block.spectrum_im.resize(kShrBlock);
  double* yr = block.spectrum_re.data();
  double* yi = block.spectrum_im.data();
  double* zr = block.re.data();
  double* zi = block.im.data();

  // Y = FFT(block zero-padded to kShrBlock). Only a capture's last block
  // is short; it is padded in scratch.
  if (src.size() == kShrBlock) {
    dsp::FftSplit(src, yr, yi);
  } else {
    block.padded.assign(kShrBlock, Cplx{0.0, 0.0});
    std::copy(src.begin(), src.end(), block.padded.begin());
    dsp::FftSplit(block.padded, yr, yi);
  }

  // Spectral product Y·S, conjugated and written in bit-reversed order:
  // the input the inverse transform's butterflies expect. conj(Y·S)
  // negates the product's imaginary part exactly. The same loop sums
  // ||block||^2 over the interleaved doubles, re then im, in order; its
  // chain of dependent adds overlaps the product's loads.
  const std::span<const std::uint32_t> rev = dsp::BitReversal(kShrBlock);
  const double* sr = t.spectrum_re.data();
  const double* si = t.spectrum_im.data();
  double energy = 0.0;
  for (std::size_t i = 0; i < kShrBlock; ++i) {
    const std::size_t k = rev[i];
    const double a = yr[k];
    const double b = yi[k];
    zr[i] = a * sr[i] - b * si[i];
    zi[i] = -(a * si[i] + b * sr[i]);
    if (i < src.size()) {
      energy += src[i].real() * src[i].real();
      energy += src[i].imag() * src[i].imag();
    }
  }
  dsp::FftSplit(zr, zi, kShrBlock);
  // Ifft's last conj and 1/N scaling: (re·s, (−im)·s).
  const double inv_n = 1.0 / static_cast<double>(kShrBlock);
  for (std::size_t i = 0; i < kShrBlock; ++i) {
    zr[i] = zr[i] * inv_n;
    zi[i] = -zi[i] * inv_n;
  }
  return t.allowance_per_norm * std::sqrt(energy) + kUnderflowSlack;
}

ShrPeak FindShr(std::span<const Cplx> rx, double threshold) {
  const FilterTables& t = Tables();
  const IqBuffer& ref = ShrReference();
  ShrWorkspace& ws = ThreadLocalShrWorkspace();
  ws.candidates.clear();
  const std::size_t positions = rx.size() - ref.size() + 1;

  // Filter: bound every position. `lower` is a lower bound on the best
  // ncorr; a position matters only if its upper bound reaches
  // max(lower, threshold). Comparisons are written so a NaN bound keeps
  // its position.
  double lower = 0.0;
  double window_energy = 0.0;
  for (std::size_t n = 0; n < ref.size(); ++n) {
    window_energy += std::norm(rx[n]);
  }
  for (std::size_t first = 0; first < positions; first += kShrBlockPositions) {
    const double allowance = EstimateShrBlock(rx, first, ws.block);
    const std::size_t count = std::min(kShrBlockPositions, positions - first);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = first + i;
      if (n > 0) {
        window_energy +=
            std::norm(rx[n + ref.size() - 1]) - std::norm(rx[n - 1]);
      }
      if (!(window_energy > 0.0)) continue;
      const double den = std::sqrt(window_energy * t.ref_energy);
      const double re = ws.block.re[i];
      const double im = ws.block.im[i];
      const double mag = std::sqrt(re * re + im * im);
      const double upper = (mag + allowance) / den * kRoundUp;
      const double low = (mag - allowance) / den * kRoundDown;
      if (low > lower) lower = low;
      if (!(upper < std::max(lower, threshold))) {
        ws.candidates.push_back({n, window_energy, upper});
      }
    }
  }

  // Refine: the exact scan, restricted to the candidates, ascending.
  const double bound = std::max(lower, threshold);
  ShrPeak peak;
  for (const Candidate& cand : ws.candidates) {
    if (cand.upper < bound) continue;
    Cplx c{0.0, 0.0};
    for (std::size_t k = 0; k < ref.size(); ++k) {
      c += rx[cand.position + k] * std::conj(ref[k]);
    }
    const double ncorr =
        std::abs(c) / std::sqrt(cand.window_energy * t.ref_energy);
    if (ncorr > peak.ncorr) {
      peak.ncorr = ncorr;
      peak.position = cand.position;
      peak.corr = c;
    }
  }
  return peak;
}

}  // namespace freerider::phy802154
