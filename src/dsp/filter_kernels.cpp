// Float32 filter kernels (declared in dsp/kernels.h). Their values only
// choose which positions the exact double chain evaluates, so this file
// is built with -ffp-contract=fast: the AVX2 build fuses multiply-adds,
// the baseline build has no FMA to fuse with. The error bound that
// turns an estimate into a certified upper bound covers both
// (docs/phy_fast_path.md, "Certified first scan").
#include <cmath>
#include <cstring>
#include <limits>

#include "dsp/kernels.h"

namespace freerider::dsp {
namespace {

using F4 = float __attribute__((vector_size(16)));
using F8 = float __attribute__((vector_size(32)));

// The one body of NcorrEstimateX32, instantiated per build. Each lane
// is a scan position; a pass covers 4 vectors of adjacent positions
// (16 with 16-byte lanes, 32 with 32-byte lanes), so eight accumulators
// stay in registers on both targets. Always inlined, and V only lives
// in locals: no vector crosses a call boundary (-Wpsabi).
template <class V>
__attribute__((always_inline)) inline void NcorrEstimateBody(
    const float* x_re, const float* x_im, const float* p_re,
    const float* p_im, std::size_t len, const float* e32, float p_energy,
    float* out32) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  constexpr std::size_t kVecs = 2;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t base = 0; base < 32; base += kVecs * kLanes) {
    // Two accumulators per component, one FMA per tap each, so the
    // FMA latency hides behind the other chains.
    V cr[kVecs] = {};
    V ci[kVecs] = {};
    V dr[kVecs] = {};
    V di[kVecs] = {};
    for (std::size_t k = 0; k < len; ++k) {
      // Broadcasts (a lane-wise fill compiles to insert chains here).
      const V pr = V{} + p_re[k];
      const V pi = V{} + p_im[k];
      for (std::size_t v = 0; v < kVecs; ++v) {
        V xr;
        V xi;
        std::memcpy(&xr, x_re + base + k + v * kLanes, sizeof(V));
        std::memcpy(&xi, x_im + base + k + v * kLanes, sizeof(V));
        // Load each sample vector once: folded into the FMAs, GCC loads
        // it twice, and the unaligned loads (half of them split across
        // cache lines) then bound the loop instead of the FMAs.
        __asm__("" : "+x"(xr), "+x"(xi));
        cr[v] += xr * pr;
        dr[v] += xi * pi;
        ci[v] += xi * pr;
        di[v] += xr * pi;
      }
    }
    for (std::size_t v = 0; v < kVecs; ++v) {
      V e;
      std::memcpy(&e, e32 + base + v * kLanes, sizeof(V));
      const V re = cr[v] + dr[v];
      const V im = ci[v] - di[v];
      const V ratio = (re * re + im * im) / (e * p_energy);
      V est;
      // -fno-math-errno lets GCC pack these into one (v)sqrtps.
      for (std::size_t j = 0; j < kLanes; ++j) est[j] = std::sqrt(ratio[j]);
      const V out = e > 0.0f ? est : V{} + kInf;
      std::memcpy(out32 + base + v * kLanes, &out, sizeof(V));
    }
  }
}

}  // namespace

void NcorrEstimateX32Baseline(const float* x_re, const float* x_im,
                              const float* p_re, const float* p_im,
                              std::size_t len, const float* e32,
                              float p_energy, float* out32) {
  NcorrEstimateBody<F4>(x_re, x_im, p_re, p_im, len, e32, p_energy, out32);
}

FREERIDER_TARGET_AVX2_FMA void NcorrEstimateX32Avx2Fma(
    const float* x_re, const float* x_im, const float* p_re,
    const float* p_im, std::size_t len, const float* e32, float p_energy,
    float* out32) {
  NcorrEstimateBody<F8>(x_re, x_im, p_re, p_im, len, e32, p_energy, out32);
}

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

void NcorrEstimateX32(const float* x_re, const float* x_im, const float* p_re,
                      const float* p_im, std::size_t len, const float* e32,
                      float p_energy, float* out32) {
  static const auto build =
      CpuHasAvx2Fma() ? NcorrEstimateX32Avx2Fma : NcorrEstimateX32Baseline;
  build(x_re, x_im, p_re, p_im, len, e32, p_energy, out32);
}

}  // namespace freerider::dsp
