#include "dsp/kernels.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/bits.h"

namespace freerider::dsp {

void SplitComplex(std::span<const Cplx> input, std::vector<double>& re,
                  std::vector<double>& im) {
  re.resize(input.size());
  im.resize(input.size());
  const Cplx* in = input.data();
  double* r = re.data();
  double* i = im.data();
  for (std::size_t n = 0; n < input.size(); ++n) {
    r[n] = in[n].real();
    i[n] = in[n].imag();
  }
}

double CorrelationPower(const double* x_re, const double* x_im,
                        const double* p_re, const double* p_im,
                        std::size_t len) {
  // One sequential chain per component, the same expression shape the
  // blocked kernel runs in each lane — so a position computed here (the
  // scan remainder) and one computed inside a block produce the same
  // doubles.
  double cr = 0.0;
  double ci = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    // c += x * conj(p): re += xr*pr + xi*pi, im += xi*pr - xr*pi.
    const double xr = x_re[k];
    const double xi = x_im[k];
    const double pr = p_re[k];
    const double pi = p_im[k];
    cr += xr * pr + xi * pi;
    ci += xi * pr - xr * pi;
  }
  return cr * cr + ci * ci;
}

namespace {

using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));

// The one body of NormalizedCorrelationX8, instantiated per build. The
// lanes of V are adjacent scan positions; each lane runs exactly the
// CorrelationPower chain and then the scalar normalization expression,
// with IEEE-754 mul/add/sub/sqrt/div applied lane by lane. No target
// the body is built for enables FMA, so nothing contracts, and the
// lane width changes only how many positions one instruction covers.
// Always inlined, and V only ever lives in locals: no vector crosses a
// call boundary, so no ABI depends on the target (-Wpsabi).
template <class V>
__attribute__((always_inline)) inline void NormalizedCorrelationX8Body(
    const double* x_re, const double* x_im, const double* p_re,
    const double* p_im, std::size_t len, const double* energy8,
    double p_energy, double* out8) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kVecs = 8 / kLanes;
  V cr[kVecs] = {};
  V ci[kVecs] = {};
  for (std::size_t k = 0; k < len; ++k) {
    V pr;
    V pi;
    for (std::size_t j = 0; j < kLanes; ++j) {
      pr[j] = p_re[k];
      pi[j] = p_im[k];
    }
    for (std::size_t v = 0; v < kVecs; ++v) {
      V xr;
      V xi;
      std::memcpy(&xr, x_re + k + v * kLanes, sizeof(V));
      std::memcpy(&xi, x_im + k + v * kLanes, sizeof(V));
      cr[v] += xr * pr + xi * pi;
      ci[v] += xi * pr - xr * pi;
    }
  }
  for (std::size_t v = 0; v < kVecs; ++v) {
    V e;
    std::memcpy(&e, energy8 + v * kLanes, sizeof(V));
    const V power = cr[v] * cr[v] + ci[v] * ci[v];
    const V norm = e * p_energy;
    V num;
    V den;
    // Lane-wise std::sqrt: kernels.cpp is built with -fno-math-errno,
    // so GCC packs these into one sqrtpd/vsqrtpd. The square root is
    // correctly rounded either way.
    for (std::size_t j = 0; j < kLanes; ++j) {
      num[j] = std::sqrt(power[j]);
      den[j] = std::sqrt(norm[j]);
    }
    // `e <= 0` (not `!(e > 0)`) so a NaN energy yields NaN, as the
    // scalar `if (e <= 0.0) continue;` form does.
    const V out = e <= 0.0 ? V{} : num / den;
    std::memcpy(out8 + v * kLanes, &out, sizeof(V));
  }
}

}  // namespace

void NormalizedCorrelationX8Baseline(const double* x_re, const double* x_im,
                                     const double* p_re, const double* p_im,
                                     std::size_t len, const double* energy8,
                                     double p_energy, double* out8) {
  // 16-byte lanes: without AVX, GCC keeps a 32-byte vector in memory
  // and round-trips every accumulator through the stack.
  NormalizedCorrelationX8Body<V2>(x_re, x_im, p_re, p_im, len, energy8,
                                  p_energy, out8);
}

FREERIDER_TARGET_AVX2 void NormalizedCorrelationX8Avx2(
    const double* x_re, const double* x_im, const double* p_re,
    const double* p_im, std::size_t len, const double* energy8,
    double p_energy, double* out8) {
  NormalizedCorrelationX8Body<V4>(x_re, x_im, p_re, p_im, len, energy8,
                                  p_energy, out8);
}

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void NormalizedCorrelationX8(const double* x_re, const double* x_im,
                             const double* p_re, const double* p_im,
                             std::size_t len, const double* energy8,
                             double p_energy, double* out8) {
  static const auto build = CpuHasAvx2() ? NormalizedCorrelationX8Avx2
                                         : NormalizedCorrelationX8Baseline;
  build(x_re, x_im, p_re, p_im, len, energy8, p_energy, out8);
}

void SlidingWindowEnergy64(const double* x_re, const double* x_im,
                           std::size_t positions, std::vector<double>& out) {
  out.resize(positions);
  double* o = out.data();
  ForEachWindowEnergy64(
      positions,
      [x_re, x_im](std::size_t i) {
        return x_re[i] * x_re[i] + x_im[i] * x_im[i];
      },
      [o](std::size_t n, double energy, double) { o[n] = energy; });
}

std::uint32_t PackBits32(std::span<const Bit> bits) {
  if (bits.size() > 32) {
    throw std::invalid_argument("PackBits32: more than 32 bits");
  }
  return ReadBitsLsbFirst(bits, 0, bits.size());
}

}  // namespace freerider::dsp
