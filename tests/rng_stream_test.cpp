// Property tests for the counter-based stream derivation and the
// Lemire NextBelow sampler that back the parallel runtime.
//
// The runtime's determinism guarantee rests on two properties proved
// here: Rng::ForTrial is a pure function of (seed, point, trial) —
// invariant to derivation order — and distinct trial streams do not
// collide over long draw sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

}  // namespace
}  // namespace freerider
