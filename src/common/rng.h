// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component (noise, traffic, slot choice) takes an
// explicit `Rng&` so experiments are reproducible from a single seed and
// independent streams can be split per component.
#pragma once

#include <cstdint>
#include <cmath>

#include "common/types.h"

namespace freerider {

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

  /// Standard normal via Box–Muller (no state caching: simple and
  /// branch-predictable; the simulator is not gated on this).
  double NextGaussian() {
    double u1 = NextDouble();
    while (u1 <= 1e-12) u1 = NextDouble();
    const double u2 = NextDouble();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
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
