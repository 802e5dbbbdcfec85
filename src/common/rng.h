// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component (noise, traffic, slot choice) takes an
// explicit `Rng&` so experiments are reproducible from a single seed and
// independent streams can be split per component.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace freerider {

class Rng;

/// The normal sampler behind Rng::NextGaussian: a 256-layer ziggurat
/// (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) over the half
/// density f(x) = exp(-x^2/2). Layer i spans [0, kEdgeX[i]) in x and
/// [kEdgeF[i], kEdgeF[i + 1]) in y, every layer of equal area; layer 0,
/// the base strip, stands in for the tail beyond r = kEdgeX[1]. The
/// edges are committed constants (tools/ziggurat_tables.py solves them
/// at 60 digits), so no table is built at run time and the fast path
/// reads constant-initialized memory. Only Tail and WedgeAccepts call
/// libm (`exp`, `log`).
namespace ziggurat {

inline constexpr std::size_t kLayerCount = 256;

/// One layer's fast path: a signed 53-bit position j with |j| < inner
/// lies under the density, at x = j * scale (scale = kEdgeX[i] / 2^52).
struct Layer {
  std::int64_t inner;
  double scale;
};

extern const std::array<Layer, kLayerCount> kLayers;
extern const std::array<double, kLayerCount + 1> kEdgeX;
extern const std::array<double, kLayerCount + 1> kEdgeF;

/// A standard normal conditioned on x > r (Marsaglia's exponential
/// rejection sampler).
double Tail(Rng& rng);

/// The wedge test of layer `layer` >= 1 at kEdgeX[layer + 1] <= |x| <
/// kEdgeX[layer]: draws y uniform over the layer's height and accepts
/// when y < f(x).
bool WedgeAccepts(Rng& rng, std::size_t layer, double x);

/// NextGaussian's out-of-line rest, for a draw `bits` the fast path
/// refused: the tail, or the wedge and a fresh draw after a miss.
double OutsideLayer(Rng& rng, std::uint64_t bits);

}  // namespace ziggurat

/// xoshiro256** — fast, high-quality, and trivially seedable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding so nearby seeds give unrelated streams.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      s = Mix(x);
    }
  }

  /// SplitMix64 finalizer: a bijective avalanche mix over u64. The
  /// building block of counter-based stream derivation (ForTrial).
  static std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Counter-based per-trial stream derivation for the parallel
  /// runtime: a pure function of (seed, point_id, trial_id), so the
  /// stream a trial sees is identical regardless of worker count,
  /// scheduling order, or which other trials ran first. Contrast with
  /// Split(), which advances the parent and therefore encodes the
  /// *order* of derivation.
  static Rng ForTrial(std::uint64_t seed, std::uint64_t point_id,
                      std::uint64_t trial_id) {
    std::uint64_t k = Mix(seed + 0x9E3779B97F4A7C15ull);
    k = Mix(k ^ Mix(point_id + 0xA0761D6478BD642Full));
    k = Mix(k ^ Mix(trial_id + 0xE7037ED1A0B428DBull));
    return Rng(k);
  }

  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n). n must be > 0.
  ///
  /// Lemire's multiply-shift rejection sampler — exactly uniform for
  /// every n (the historical `NextU64() % n` had a bias of up to
  /// 2^64 mod n toward small values, and fed the *low* xoshiro bits to
  /// every MAC slot choice). The stat drift against the historical
  /// tables is documented in DESIGN.md §7.
  std::uint64_t NextBelow(std::uint64_t n) {
    unsigned __int128 m =
        static_cast<unsigned __int128>(NextU64()) * static_cast<unsigned __int128>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      // Threshold 2^64 mod n, computed without 128-bit division.
      const std::uint64_t threshold = (0ull - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(NextU64()) *
            static_cast<unsigned __int128>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fair coin.
  Bit NextBit() { return static_cast<Bit>(NextU64() & 1u); }

  /// Standard normal (ziggurat above). One NextU64 gives the layer (its
  /// low 8 bits) and a signed 53-bit position (its top 53 bits); ~99 %
  /// of draws end in this table load, compare and multiply. The stream
  /// drift against the earlier Box–Muller is documented in DESIGN.md §7.
  double NextGaussian() {
    const std::uint64_t bits = NextU64();
    const ziggurat::Layer& layer = ziggurat::kLayers[bits & 0xFFu];
    const std::int64_t j = static_cast<std::int64_t>(bits) >> 11;
    if ((j < 0 ? -j : j) < layer.inner) {
      return static_cast<double>(j) * layer.scale;
    }
    return ziggurat::OutsideLayer(*this, bits);
  }

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = 1.
  Cplx NextComplexGaussian() {
    return {NextGaussian() * 0.7071067811865476,
            NextGaussian() * 0.7071067811865476};
  }

  /// Derive an independent child stream (for per-component seeding).
  Rng Split() { return Rng(NextU64()); }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Random payload helper used by tests, benches and traffic generators.
inline Bytes RandomBytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.NextU64() & 0xFFu);
  return out;
}

inline BitVector RandomBits(Rng& rng, std::size_t n) {
  BitVector out(n);
  for (auto& b : out) b = rng.NextBit();
  return out;
}

}  // namespace freerider
