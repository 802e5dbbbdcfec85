#include "dsp/fft.h"

#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

namespace freerider::dsp {
namespace {

// Twiddle factors for a given size, cached across calls. The simulator
// only ever uses a handful of sizes (64 for OFDM, 2048 for the
// 802.15.4 SHR search, the spectrum analyzer's fft_size, plus test
// sizes), so a per-thread cache is cheap; thread_local keeps the hot
// FFT path lock-free now that sweeps run tasks on the work-stealing
// executor.
const std::vector<Cplx>& TwiddlesFor(std::size_t n) {
  thread_local std::map<std::size_t, std::vector<Cplx>> cache;
  // Last-size memo: the RX fast path hammers 64-point transforms (one
  // per OFDM symbol), and the map lookup shows up in profiles. The
  // pointer stays valid because the map is thread_local and nodes are
  // never erased. Twiddle values are unchanged, so FFT output stays
  // bit-identical.
  thread_local std::size_t last_n = 0;
  thread_local const std::vector<Cplx>* last = nullptr;
  if (n == last_n && last != nullptr) return *last;
  auto it = cache.find(n);
  if (it == cache.end()) {
    std::vector<Cplx> tw(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      tw[k] = {std::cos(angle), std::sin(angle)};
    }
    it = cache.emplace(n, std::move(tw)).first;
  }
  last_n = n;
  last = &it->second;
  return it->second;
}

void BitReversePermute(std::span<Cplx> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

}  // namespace

void Fft(std::span<Cplx> data) {
  const std::size_t n = data.size();
  if (!IsPowerOfTwo(n)) throw std::invalid_argument("Fft: size not a power of 2");
  if (n == 1) return;

  const auto& tw = TwiddlesFor(n);
  BitReversePermute(data);
  // The butterfly works on the doubles directly ([complex.numbers]
  // lets a std::complex<double> array be read as double[2] pairs). With
  // std::complex temporaries GCC spills each product to the stack as two
  // 8-byte halves and reloads it as one 16-byte value, a store-forwarding
  // stall per temporary. The product keeps GCC's complex-multiply order
  // (re = a*c - b*d, im = a*d + b*c), so every finite output is
  // bit-identical to the std::complex form (dsp_test pins it).
  double* d = reinterpret_cast<double*>(data.data());
  const double* w = reinterpret_cast<const double*>(tw.data());
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = d + 2 * i;
      double* hi = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k * step];
        const double wi = w[2 * k * step + 1];
        const double br = hi[2 * k];
        const double bi = hi[2 * k + 1];
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
}

void Ifft(std::span<Cplx> data) {
  // conj, forward transform, conj and scale by 1/N, on the doubles for
  // the same reason as the butterfly. conj(x) * s is (re*s, (-im)*s),
  // so the bytes match the std::complex form.
  double* d = reinterpret_cast<double*>(data.data());
  const std::size_t doubles = 2 * data.size();
  for (std::size_t i = 1; i < doubles; i += 2) d[i] = -d[i];
  Fft(data);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (std::size_t i = 0; i < doubles; i += 2) {
    d[i] = d[i] * inv_n;
    d[i + 1] = -d[i + 1] * inv_n;
  }
}

IqBuffer FftCopy(std::span<const Cplx> data) {
  IqBuffer out(data.begin(), data.end());
  Fft(out);
  return out;
}

}  // namespace freerider::dsp
