// Property tests for the counter-based stream derivation, the Lemire
// NextBelow sampler that back the parallel runtime, and the ziggurat
// normal sampler behind every Gaussian draw.
//
// The runtime's determinism guarantee rests on two properties proved
// here: Rng::ForTrial is a pure function of (seed, point, trial) —
// invariant to derivation order — and distinct trial streams do not
// collide over long draw sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace freerider {
namespace {

// ------------------------------------------------------- ForTrial

TEST(RngStream, ForTrialIsReproducible) {
  Rng a = Rng::ForTrial(42, 3, 7);
  Rng b = Rng::ForTrial(42, 3, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngStream, ForTrialIsInvariantToDerivationOrder) {
  // Derive (point, trial) pairs in two very different orders; the
  // streams must be identical — this is what makes parallel results
  // independent of scheduling.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> grid;
  for (std::uint64_t p = 0; p < 8; ++p)
    for (std::uint64_t t = 0; t < 8; ++t) grid.emplace_back(p, t);

  std::vector<std::uint64_t> forward, reversed;
  for (const auto& [p, t] : grid) {
    forward.push_back(Rng::ForTrial(99, p, t).NextU64());
  }
  std::reverse(grid.begin(), grid.end());
  for (const auto& [p, t] : grid) {
    reversed.push_back(Rng::ForTrial(99, p, t).NextU64());
  }
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(forward, reversed);
}

TEST(RngStream, ForTrialNeighborStreamsDiffer) {
  // Adjacent counters must give unrelated streams (SplitMix64
  // avalanche): first draws across a neighborhood are all distinct.
  std::unordered_set<std::uint64_t> first_draws;
  for (std::uint64_t p = 0; p < 32; ++p) {
    for (std::uint64_t t = 0; t < 32; ++t) {
      first_draws.insert(Rng::ForTrial(7, p, t).NextU64());
    }
  }
  EXPECT_EQ(first_draws.size(), 32u * 32u);
}

TEST(RngStream, ForTrialSeedSeparatesStreams) {
  Rng a = Rng::ForTrial(1, 0, 0);
  Rng b = Rng::ForTrial(2, 0, 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_EQ(equal, 0);
}

TEST(RngStream, ForTrialStreamsPairwiseNonOverlapping) {
  // 16 streams × 65536 draws ≈ 1M total: no value appears in two
  // different streams (a collision among ~1M 64-bit draws has
  // probability ~3e-8; a xoshiro sequence overlap would collide
  // massively).
  constexpr std::size_t kStreams = 16;
  constexpr std::size_t kDraws = 65536;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(kStreams * kDraws);
  for (std::size_t s = 0; s < kStreams; ++s) {
    Rng rng = Rng::ForTrial(2026, s / 4, s % 4);
    std::unordered_set<std::uint64_t> mine;
    mine.reserve(kDraws);
    for (std::size_t i = 0; i < kDraws; ++i) {
      const std::uint64_t v = rng.NextU64();
      // Cross-stream overlap check (values already seen by earlier
      // streams); within-stream repeats are allowed by the birthday
      // bound but would also be caught here.
      EXPECT_TRUE(mine.insert(v).second) << "within-stream repeat";
      EXPECT_EQ(seen.count(v), 0u) << "cross-stream overlap at stream " << s;
    }
    seen.insert(mine.begin(), mine.end());
  }
  EXPECT_EQ(seen.size(), kStreams * kDraws);
}

TEST(RngStream, MixIsBijectiveOnSample) {
  // SplitMix64's finalizer is a bijection; spot-check no collisions
  // over a contiguous counter range (the way ForTrial consumes it).
  std::unordered_set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 100000; ++i) out.insert(Rng::Mix(i));
  EXPECT_EQ(out.size(), 100000u);
}

// ------------------------------------------------------ NextBelow

TEST(RngStream, NextBelowAlwaysInRange) {
  Rng rng(5);
  const std::uint64_t bounds[] = {1, 2, 3, 7, 10, 1000, 1ull << 32,
                                  (1ull << 63) + 12345};
  for (std::uint64_t n : bounds) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.NextBelow(n), n);
  }
}

TEST(RngStream, NextBelowOneIsAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngStream, NextBelowIsUnbiasedForSmallN) {
  // χ²-style uniformity check over n=13 (a bound where the legacy
  // modulo path is measurably biased in the limit). With 130k draws
  // each bin expects 10000; bound the per-bin deviation at 5σ
  // (σ = sqrt(np(1-p)) ≈ 96).
  Rng rng(7);
  constexpr std::uint64_t n = 13;
  constexpr int draws = 130000;
  int counts[n] = {};
  for (int i = 0; i < draws; ++i) ++counts[rng.NextBelow(n)];
  for (std::uint64_t k = 0; k < n; ++k) {
    EXPECT_NEAR(counts[k], draws / static_cast<int>(n), 480)
        << "bin " << k;
  }
}

TEST(RngStream, NextBelowRejectionMatchesScaledMultiply) {
  // For n a power of two the threshold is 0, so Lemire reduces to a
  // pure multiply-shift of one draw: result == high 3 bits scaled.
  Rng a(8), b(8);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t expect =
        static_cast<std::uint64_t>((static_cast<unsigned __int128>(b.NextU64()) * 8) >> 64);
    EXPECT_EQ(a.NextBelow(8), expect);
  }
}


// ------------------------------------------------------ Gaussian

/// Standard normal CDF.
double Phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Kolmogorov–Smirnov distance of `samples` (sorted here) from `cdf`.
double KsDistance(std::vector<double>& samples,
                  const std::function<double(double)>& cdf) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  return d;
}

/// KS acceptance at significance ~1e-3: sqrt(n) * D < 1.95.
void ExpectKs(double d, std::size_t n, const char* what) {
  EXPECT_LT(d * std::sqrt(static_cast<double>(n)), 1.95) << what;
}

TEST(Gaussian, MomentsKsAndTailsOverTenMillionDraws) {
  // 10^7 draws: the first four moments, the KS distance read on a grid
  // of 4800 bin edges over [-6, 6) (a lower bound on the exact
  // distance, tight at this resolution), and P(|z| > t) against erfc
  // for t = 0.25 ... 5 within 5 binomial standard errors.
  Rng rng(2026);
  constexpr std::size_t kDraws = 10'000'000;
  constexpr int kBins = 4800;
  constexpr double kLo = -6.0;
  constexpr double kWidth = 12.0 / kBins;
  std::vector<std::uint32_t> bins(kBins + 2, 0);  // [0] below, [last] above
  constexpr int kTails = 20;
  std::vector<std::size_t> beyond(kTails, 0);
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double z = rng.NextGaussian();
    m1 += z;
    m2 += z * z;
    m3 += z * z * z;
    m4 += z * z * z * z;
    const double pos = (z - kLo) / kWidth;
    const int b = pos < 0.0 ? 0 : pos >= kBins ? kBins + 1
                                                : static_cast<int>(pos) + 1;
    ++bins[b];
    const double a = std::abs(z);
    for (int t = 0; t < kTails && a > 0.25 * (t + 1); ++t) ++beyond[t];
  }
  const double n = static_cast<double>(kDraws);
  EXPECT_NEAR(m1 / n, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(m2 / n, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m3 / n, 0.0, 5.0 * std::sqrt(15.0 / n));
  EXPECT_NEAR(m4 / n, 3.0, 5.0 * std::sqrt(96.0 / n));

  double below = bins[0];
  double d = 0.0;
  for (int b = 1; b <= kBins; ++b) {
    below += bins[b];
    d = std::max(d, std::abs(below / n - Phi(kLo + kWidth * b)));
  }
  ExpectKs(d, kDraws, "ziggurat vs Phi");

  for (int t = 0; t < kTails; ++t) {
    const double x = 0.25 * (t + 1);
    const double p = std::erfc(x / std::sqrt(2.0));
    const double se = std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(static_cast<double>(beyond[t]) / n, p, 5.0 * se + 1.0 / n)
        << "P(|z| > " << x << ")";
  }
}

TEST(Gaussian, TailMatchesConditionalCdfPastSixSigma) {
  // The tail sampler alone against P(X <= t | X > r), and its mass
  // beyond 5 and 6 sigma against the exact conditional probabilities.
  Rng rng(31);
  const double r = ziggurat::kEdgeX[1];
  const double tail_mass = std::erfc(r / std::sqrt(2.0));
  constexpr std::size_t kDraws = 400'000;
  std::vector<double> x(kDraws);
  std::size_t past5 = 0;
  std::size_t past6 = 0;
  for (auto& v : x) {
    v = ziggurat::Tail(rng);
    ASSERT_GT(v, r);
    past5 += v > 5.0;
    past6 += v > 6.0;
  }
  const auto conditional = [&](double t) {
    return 1.0 - std::erfc(t / std::sqrt(2.0)) / tail_mass;
  };
  ExpectKs(KsDistance(x, conditional), kDraws, "tail vs conditional CDF");
  for (const auto& [t, count] : {std::pair{5.0, past5}, std::pair{6.0, past6}}) {
    const double p = std::erfc(t / std::sqrt(2.0)) / tail_mass;
    const double mean = p * kDraws;
    EXPECT_NEAR(static_cast<double>(count), mean, 5.0 * std::sqrt(mean) + 1.0)
        << "beyond " << t;
  }
}

TEST(Gaussian, WedgeMatchesLayerCdf) {
  // Uniform points across a layer's full width, kept when inside the
  // inner rectangle or accepted by the wedge test, must follow the
  // layer's region under the density: x-density proportional to
  // min(f(x), f(x[i+1])) - f(x[i]) on [0, x[i]).
  const auto f_int = [](double a, double b) {  // integral of f over [a, b]
    return std::sqrt(kPi / 2.0) *
           (std::erf(b / std::sqrt(2.0)) - std::erf(a / std::sqrt(2.0)));
  };
  Rng rng(32);
  for (const std::size_t layer : {1u, 2u, 16u, 128u, 200u, 254u, 255u}) {
    const double xo = ziggurat::kEdgeX[layer];
    const double xi = ziggurat::kEdgeX[layer + 1];
    const double fo = ziggurat::kEdgeF[layer];
    const double fi = ziggurat::kEdgeF[layer + 1];
    const auto mass = [&](double t) {
      if (t <= xi) return (fi - fo) * t;
      return (fi - fo) * xi + f_int(xi, t) - fo * (t - xi);
    };
    const double total = mass(xo);
    constexpr std::size_t kDraws = 40'000;
    std::vector<double> x;
    x.reserve(kDraws);
    while (x.size() < kDraws) {
      const double v = rng.NextDouble() * xo;
      if (v < xi || ziggurat::WedgeAccepts(rng, layer, v)) x.push_back(v);
    }
    ExpectKs(KsDistance(x, [&](double t) { return mass(t) / total; }),
             kDraws, ("layer " + std::to_string(layer)).c_str());
  }
}

TEST(Gaussian, ComplexPartsHaveUnitVarianceAndNoCorrelation) {
  // I and Q each carry half the power, and neither they nor their
  // squares correlate (the squares catch dependence that a shared
  // draw would leave after the signs cancel).
  Rng rng(33);
  constexpr std::size_t kDraws = 2'000'000;
  double ii = 0.0, qq = 0.0, iq = 0.0, i2q2 = 0.0, i4 = 0.0, q4 = 0.0;
  for (std::size_t k = 0; k < kDraws; ++k) {
    const Cplx z = rng.NextComplexGaussian();
    const double i = z.real();
    const double q = z.imag();
    ii += i * i;
    qq += q * q;
    iq += i * q;
    i2q2 += i * i * q * q;
    i4 += i * i * i * i;
    q4 += q * q * q * q;
  }
  const double n = static_cast<double>(kDraws);
  EXPECT_NEAR(ii / n, 0.5, 5.0 * 0.5 * std::sqrt(2.0 / n));
  EXPECT_NEAR(qq / n, 0.5, 5.0 * 0.5 * std::sqrt(2.0 / n));
  EXPECT_NEAR(iq / n, 0.0, 5.0 * 0.5 / std::sqrt(n));
  // cov(I^2, Q^2) / (var(I^2) var(Q^2))^(1/2), 0 for independent parts.
  const double cov = i2q2 / n - (ii / n) * (qq / n);
  const double var_i = i4 / n - (ii / n) * (ii / n);
  const double var_q = q4 / n - (qq / n) * (qq / n);
  EXPECT_NEAR(cov / std::sqrt(var_i * var_q), 0.0, 5.0 / std::sqrt(n));
}

std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Gaussian, FirstDrawsOfSeedOneArePinned) {
  // The stream every seeded campaign draws its noise from. A change to
  // the sampler, the tables or the bit split moves this hash; such a
  // change is a stream drift and is documented in DESIGN.md §7.
  Rng rng(1);
  std::vector<double> draws(4096);
  for (auto& v : draws) v = rng.NextGaussian();
  char hex[19];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a(draws.data(), draws.size() * sizeof(double))));
  EXPECT_STREQ(hex, "ee350784425be10e");
  EXPECT_EQ(rng.NextU64(), 2623388191723885982ull) << "draws consumed";
}

TEST(Gaussian, TablesArePinnedAndSelfConsistent) {
  std::uint64_t h = Fnv1a(ziggurat::kEdgeX.data(),
                          ziggurat::kEdgeX.size() * sizeof(double));
  h = Fnv1a(ziggurat::kEdgeF.data(), ziggurat::kEdgeF.size() * sizeof(double),
            h);
  for (const ziggurat::Layer& l : ziggurat::kLayers) {
    h = Fnv1a(&l.inner, sizeof l.inner, h);
    h = Fnv1a(&l.scale, sizeof l.scale, h);
  }
  char hex[19];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  EXPECT_STREQ(hex, "9564f563d1959404");

  // The construction: edges fall from the base strip's width to 0,
  // kEdgeF is f at each edge, and each fast-path entry is the edge
  // ratio and edge scale in units of the 53-bit position.
  const double v = ziggurat::kEdgeX[0] * ziggurat::kEdgeF[1];
  EXPECT_NEAR(v, 0.00492867323399, 1e-13);
  EXPECT_EQ(ziggurat::kEdgeX[ziggurat::kLayerCount], 0.0);
  EXPECT_EQ(ziggurat::kEdgeF[ziggurat::kLayerCount], 1.0);
  for (std::size_t i = 0; i < ziggurat::kLayerCount; ++i) {
    const double x = ziggurat::kEdgeX[i];
    EXPECT_GT(x, ziggurat::kEdgeX[i + 1]);
    EXPECT_NEAR(ziggurat::kEdgeF[i], std::exp(-0.5 * x * x), 4e-16);
    if (i >= 1) {
      EXPECT_NEAR(x * (ziggurat::kEdgeF[i + 1] - ziggurat::kEdgeF[i]), v,
                  1e-14)
          << "layer " << i;
    }
    const ziggurat::Layer& l = ziggurat::kLayers[i];
    EXPECT_EQ(l.scale, x * 0x1p-52);
    EXPECT_NEAR(static_cast<double>(l.inner),
                ziggurat::kEdgeX[i + 1] / x * 0x1p52, 1.0);
  }
}

}  // namespace
}  // namespace freerider
